"""R015 fixture: mutating DynamicKStarCore internals outside the stream stack.

Lines ending with ``# plant`` must fire; everything else must not.
The directory name matters — R015 exempts ``repro/core/`` and
``repro/stream/`` paths, so this fixture lives under a ``repro/serve/``
directory.
"""

import numpy as np

from repro.core.dynamic import DynamicKStarCore


def pokes_the_maintained_state(tracker: DynamicKStarCore):
    tracker._edge_keys = np.append(tracker._edge_keys, 1)  # plant
    tracker._h[0] = 7  # plant
    tracker._h += 1  # plant
    tracker._pending[(0, 1)] = +1  # plant
    tracker._ov_add.clear()  # plant
    tracker._dirty = False  # plant
    tracker._overlay_edges = 0  # plant
    return tracker


def surgical_reset_kept_for_tests(tracker: DynamicKStarCore):
    # The sanctioned escape hatch: justified inline suppression.
    tracker._h[:] = 0  # repro-lint: disable=R015 (fault-injection scaffolding)
    return tracker


def public_mutators_are_fine(tracker: DynamicKStarCore):
    # The intended shape: the validated batch mutators.
    tracker.insert_edges([(0, 1), (1, 2)])
    tracker.delete_edge(0, 1)
    return tracker.k_star()


def reads_are_fine(tracker: DynamicKStarCore):
    # Reads cannot desynchronize the fixed point; only writes are flagged.
    cores = tracker.core_numbers()
    return int(np.max(cores)), tracker.num_edges


def unrelated_attributes_are_fine(server):
    # Same-named mutators on other objects' public state do not fire.
    server.pending_queries.clear()
    server.history = []
    return server
