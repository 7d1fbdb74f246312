"""Strategic-behavior toolkit: games, bounded-rational prediction, risk and
social preference transforms, a fog-computing price negotiation market, and
maximum-likelihood model fitting, with a command-line front end.

Each module declares its public names in its own ``__all__``; the package
re-exports them in module order."""

from . import behavior, estimation, games, market, preferences
from .games import *  # noqa: F403
from .behavior import *  # noqa: F403
from .preferences import *  # noqa: F403
from .market import *  # noqa: F403
from .estimation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*games.__all__, *behavior.__all__, *preferences.__all__, *market.__all__,
           *estimation.__all__, "__version__"]
