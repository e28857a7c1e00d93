"""R016 fixture: plain ``np.unique`` calls that take NumPy's hash path.

Lines ending with ``# plant`` must fire; everything else must not.
"""

import numpy
import numpy as np

from repro.store.csr import sorted_unique, unique_pairs


def hash_path_dedup(values, rows):
    ids = np.unique(values)  # plant
    edges = np.unique(rows, axis=0)  # plant
    flat = numpy.unique(values.ravel())  # plant
    spelled_out = np.unique(values, return_counts=False)  # plant
    positional = np.unique(values, False, False, False)  # plant
    return ids, edges, flat, spelled_out, positional


def huge_graph_fallback(rows):
    # The sanctioned escape hatch: justified inline suppression.
    return np.unique(rows, axis=0)  # repro-lint: disable=R016 (combined key would overflow int64)


def sort_path_calls_are_fine(labels, keys, flag, options):
    # Asking for an index, inverse or counts already takes the sort path;
    # a flag that is not literally False may be a request.
    uniq, first = np.unique(labels, return_index=True)
    _, inverse = np.unique(keys, return_inverse=True)
    _, counts = numpy.unique(keys, return_counts=True)
    _, first_again = np.unique(keys, True)
    maybe = np.unique(keys, return_counts=flag)
    unknown = np.unique(keys, **options)
    return uniq, first, inverse, counts, first_again, maybe, unknown


def sort_based_helpers(values, n, heads, tails):
    # The intended shape.
    return sorted_unique(values), unique_pairs(n, heads, tails)


def unrelated_unique_is_fine(frame, items):
    # Same attribute name on other objects does not fire.
    return frame.unique(), set(items)
