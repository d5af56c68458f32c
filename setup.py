"""Build script for the optional compiled search kernel.

src/catramsey/_kernel.c uses no Python API, so it is built as a plain shared
library, catramsey/libcatramsey_kernel.so, which catramsey._kernel loads with
ctypes.  The package works without it (the pure-Python kernel is selected at
import time), so the extension is optional: a failed build, for instance on a
machine without a C compiler, is only a warning.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class build_shared_library(build_ext):
    """build_ext for a plain shared library instead of an extension module."""

    def get_ext_filename(self, fullname):
        # no extension-module suffix: the library must never be importable
        return os.path.join(*fullname.split(".")) + ".so"

    def get_export_symbols(self, ext):
        return ext.export_symbols  # the kernel's own entry points: there is no PyInit_


setup(
    ext_modules=[
        Extension(
            "catramsey.libcatramsey_kernel",
            ["src/catramsey/_kernel.c"],
            extra_compile_args=["-O3"],
            export_symbols=["search_from_prefix", "catramsey_kernel_abi"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": build_shared_library},
)
