"""Learning-augmented online list labeling.

Sorted sparse arrays (packed-memory arrays, classic and adaptive) wrapped by
a rank-prediction-aware allocator, plus the rank predictors and benchmark
harness used to evaluate them on real and synthetic insertion streams.
"""

from .core import *
from .pma import *
from .apma import *
from .learned import *
from .predictors import *
from .harness import *
from . import apma, core, harness, learned, pma, predictors

# Each module's __all__ declares its public names; the package exports them all.
__all__ = [*core.__all__, *pma.__all__, *apma.__all__, *learned.__all__,
           *predictors.__all__, *harness.__all__]
