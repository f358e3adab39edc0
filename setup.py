"""Builds the optional compiled reduction machine.

The package is fully functional without it: extreal.kernel falls back to the
pure-Python machine when the extension is absent.  Without Cython the
extension is built from the committed, Cython-generated ``_speedup.c``.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("extreal._speedup", ["src/extreal/_speedup.pyx"])],
        language_level="3",
    )
except ImportError:
    ext_modules = [Extension("extreal._speedup", ["src/extreal/_speedup.c"])]

setup(ext_modules=ext_modules)
