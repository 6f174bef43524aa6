"""Feature-space search engines for whole-slide images.

Four retrieval engines over patch feature grids, the evaluation metrics to
compare them, and a synthetic data harness for end-to-end runs.
"""

__version__ = "0.1.0"

from .errors import (
    SearchError,
    UnsupportedOperationError,
    ValidationError,
)
from .model import (
    PatchFeature,
    RetrievalEntry,
    RetrievalResult,
    SlideRecord,
)

__all__ = [
    "SearchError",
    "ValidationError",
    "UnsupportedOperationError",
    "PatchFeature",
    "SlideRecord",
    "RetrievalEntry",
    "RetrievalResult",
    "__version__",
]
