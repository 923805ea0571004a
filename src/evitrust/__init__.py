"""Evidence-based trust: representation, propagation, and maintenance.

Trust is carried as evidence pairs ⟨r, s⟩ with a principled certainty
functional, moved through referral networks by concatenation/aggregation,
and maintained by update methods that score how accurate each received
estimate turned out to be.  A deterministic simulation layer and CLI sit on
top for experiments and feedback-prediction pipelines.

Each module declares its public names once, in its ``__all__``; the package
re-exports them all.
"""

from . import errors, core, propagation, updates, simulation, amazon
from .errors import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .propagation import *  # noqa: F401,F403
from .updates import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403
from .amazon import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (errors, core, propagation, updates, simulation, amazon)
           for name in module.__all__]
