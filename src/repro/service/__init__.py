"""Always-on discovery service: warm state, requests, lake mutations.

Turns the batch AutoFeat pipeline into a standing server.  One
:class:`DiscoveryService` holds the profiles, pair matches, DRG,
hop cache and ranked results warm across requests; ``register_table`` /
``update_table`` / ``drop_table`` mutate the lake incrementally while
keeping every answer bit-identical to a cold full rebuild (DESIGN.md §12).
"""

from .service import DiscoveryService, ServiceResponse
from .state import LakeSnapshot, reachable_within

__all__ = [
    "DiscoveryService",
    "ServiceResponse",
    "LakeSnapshot",
    "reachable_within",
]
