"""varfrac: variable-order fractional integration on [0, 1].

Evaluation of the integration operator with a point-dependent order,
boundedness and compactness diagnostics driven by the behavior of the order
near the endpoints, spectral discretization, and entropy-number bound
machinery with rate regression for the worked order families.

The package namespace is the union of the five modules' ``__all__`` lists.
It is lazy (PEP 562): ``import varfrac`` loads no submodule.  A submodule
is imported when it is first named, an exported name when it is first
looked up (the modules are searched in the order below, and each one
searched is imported), and ``__all__``, ``dir(varfrac)`` and
``from varfrac import *`` import all five.
"""

import sys

__version__ = "0.1.0"

#: the submodules that make up the namespace, in the order of the export
#: list and of the search for an exported name
_MODULES = ("orders", "core", "diagnostics", "spectral", "entropy")


def _module(name: str):
    qualified = f"{__name__}.{name}"
    # the import statement's path, unlike importlib's, shows in -X importtime
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES for n in _module(m).__all__)]
    else:
        for m in _MODULES:
            module = _module(m)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    exports = globals()["__all__"] if "__all__" in globals() else __getattr__("__all__")
    return sorted({*globals(), *_MODULES, *exports})
