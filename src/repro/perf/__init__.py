"""Hot-path performance layer: caching, in memory and on disk.

``repro.perf`` holds what makes the sweeps fast; ``perfbench/`` at the
repository root measures it, end to end (see docs/performance.md):

* :mod:`repro.perf.cache` — the sweep-scoped memoization cache shared by
  the busy-period, phase-type-fitting and QBD layers (correctness-
  transparent: cached and uncached runs are bit-identical).
* :mod:`repro.perf.store` — the opt-in persistent second tier
  (``REPRO_STORE``): an on-disk, content-addressed, checksummed result
  store that survives processes; corrupt entries are quarantined and
  recomputed, never served.
* :mod:`repro.perf.codec` — the deterministic binary codec the store
  uses (bit-exact floats, closed type registry, no pickle).
* :mod:`repro.perf.batched` — the sweep prefetch that solves a row's
  QBDs in stacked calls and seeds the solutions into the cache.

Import note: this package must stay import-light (no numpy/scipy at
module level) because the distributions and solver layers import it;
the codec/store resolve numpy and the domain classes inside functions.
"""

from .cache import (
    SweepCache,
    active_cache,
    cached,
    clear_cache_scope,
    sweep_cache,
    use_cache,
)
from .codec import decode_value, encode_value, key_digest, register_codec
from .store import (
    PERSISTED_NAMESPACES,
    ResultStore,
    store_from_env,
)

__all__ = [
    "PERSISTED_NAMESPACES",
    "ResultStore",
    "SweepCache",
    "active_cache",
    "cached",
    "clear_cache_scope",
    "decode_value",
    "encode_value",
    "key_digest",
    "register_codec",
    "store_from_env",
    "sweep_cache",
    "use_cache",
]
