"""The result store's former import path, kept as a re-export.

:mod:`repro.engine.store` owns :class:`ShardedResultStore`; this
module only re-binds its public names so code that imports them from
``repro.service.store`` keeps working.
"""

from repro.engine.store import (
    CompactionReport,
    ShardedResultStore,
    StoreSummary,
)

__all__ = ["CompactionReport", "ShardedResultStore", "StoreSummary"]
