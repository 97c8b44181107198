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

Each module's ``__all__`` is the one list of its public names; the package
root re-exports them all. The lists are read from the submodules before
the star imports, because the star import of ``simulate`` rebinds
``deadlinenet.simulate`` to the function of that name.
"""

from . import analytic, config, distributions, errors, model, simulate, stats

__version__ = "0.1.0"

__all__ = []
__all__ += analytic.__all__
__all__ += config.__all__
__all__ += distributions.__all__
__all__ += errors.__all__
__all__ += model.__all__
__all__ += simulate.__all__
__all__ += stats.__all__

from .analytic import *
from .config import *
from .distributions import *
from .errors import *
from .model import *
from .simulate import *
from .stats import *
