"""Open networks of infinite-server queues with competing service times.

Each node's service time is the minimum of several independent components
(for example a task duration racing a deadline), and where a departing
customer goes next depends on which component achieved the minimum. The
equilibrium occupancy is still product-form — independent Poisson node
marginals — but, unlike the classical insensitive case, the means depend
on the full component laws, not just their expectations.

The package solves for that equilibrium exactly (quadrature for the
minimum statistics plus dense linear traffic equations), cross-checks it
through an equivalent expanded Markovian network, contrasts it with two
naive mean-value approximations, and verifies everything against an
event-driven simulation of the original non-Markovian dynamics.

Each module's ``__all__`` is the one list of its public names. The package
root imports none of them up front (PEP 562): the first read of a public
name imports the modules in ``_MODULES`` order until one lists it, and
keeps the value, so an exact solve never loads the simulator or
``numpy.random``. ``__all__`` itself, and so ``from deadlinenet import *``,
reads every module's list. ``deadlinenet.simulate`` is the function, not
the module of that name: the import system binds each submodule to the
package once it is loaded, whatever imported it, and ``_Package`` binds a
module that exports its own name as that value instead.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# the modules whose __all__ the root exports, in the order they are searched
_MODULES = ("analytic", "config", "distributions", "errors", "model",
            "simulate", "stats")


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule here once it is loaded
        if isinstance(value, ModuleType) and name in getattr(value, "__all__", ()):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def _submodule(name):
    return import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name == "__all__":
        value = [public for module in _MODULES
                 for public in _submodule(module).__all__]
    elif name in _MODULES:
        # a submodule not loaded yet: loading it binds it, through _Package
        module = _submodule(name)
        return globals().get(name, module)
    else:
        owner = None if name.startswith("_") else next(
            (m for m in map(_submodule, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
