"""Vectorized edge-list text ingestion.

The line-by-line loader (``repro.graph.io._parse_lines``) performs one
``builder.add_edge`` call — two dict lookups, two Python int boxes — per
edge. This module replaces the hot path with array-at-a-time parsing
while reproducing the legacy semantics *exactly*:

* ``#`` / ``%`` comment lines and blank lines are skipped;
* a data line with fewer than two columns raises the same
  :class:`~repro.errors.GraphFormatError`, message and line number
  included;
* vertex tokens are interned as **strings** to dense ids in first-seen
  (interleaved ``u, v``) order, so labels and vertex numbering match the
  legacy reader token for token.

Two tiers:

* **numeric fast path** — two-column files whose tokens are canonical
  decimal integers are recognised by byte-level array ops on the whole
  text (no per-line Python loop), parsed with one ``np.fromstring``
  call and interned through a direct-address first-seen table; guards
  (integer charset, exactly two tokens per line, magnitude below 2**53,
  canonical-length equality) prove the token -> value mapping is
  invertible before the path is trusted;
* **token path** — everything else splits per line (exact column
  validation) and interns the token array via ``np.unique`` on strings.

The strict line-by-line builder loop remains available through
``read_undirected_edgelist(..., vectorized=False)`` as the
reference/validation fallback.
"""

from __future__ import annotations

from typing import Iterator, TextIO, Tuple

import numpy as np

from ..errors import GraphFormatError

__all__ = ["read_edges_vectorized"]

_COMMENT_CHARS = "#%"
# float64 represents every integer of magnitude < 2**53 exactly; larger
# tokens must take the string path.
_EXACT_FLOAT_BOUND = float(1 << 53)
_CHUNK_CHARS = 1 << 24
#: Dense-interner guard: only build a first-seen table when the value
#: span is at most this factor of the token count (else np.unique).
_DENSE_SPAN_FACTOR = 4


def _iter_chunks(stream: TextIO) -> Iterator[str]:
    while True:
        chunk = stream.read(_CHUNK_CHARS)
        if not chunk:
            return
        yield chunk


def _collect_data_lines(text: str) -> Tuple[list[str], list[int]]:
    """Strip/filter the text into (data_lines, 1-based line numbers).

    This is the slow-path line walk, reproducing the legacy reader's
    strip/skip semantics exactly; the numeric fast path never calls it.
    """
    data_lines: list[str] = []
    numbers: list[int] = []
    for line_number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and line[0] not in _COMMENT_CHARS:
            data_lines.append(line)
            numbers.append(line_number)
    return data_lines, numbers


def _first_seen_ids_dense(
    flat: np.ndarray, lo: int, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """O(m + span) first-seen interning through a direct-address table."""
    offsets = flat - lo
    first_pos = np.full(span, -1, dtype=np.int64)
    # Assignment with duplicate fancy indices stores the last value
    # written, so scattering positions in reverse leaves each slot
    # holding its value's *earliest* occurrence index.
    first_pos[offsets[::-1]] = np.arange(
        flat.size - 1, -1, -1, dtype=np.int64
    )
    uniq_offsets = np.flatnonzero(first_pos >= 0)
    order = np.argsort(first_pos[uniq_offsets], kind="stable")
    uniq_offsets = uniq_offsets[order]
    ids_of = np.empty(span, dtype=np.int64)
    ids_of[uniq_offsets] = np.arange(uniq_offsets.size, dtype=np.int64)
    return ids_of[offsets], uniq_offsets + lo


def _first_seen_ids(flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ids in first-occurrence order for a flat token/value array.

    Returns ``(ids, uniques_in_first_seen_order)`` — the vectorized
    equivalent of interning ``flat`` left to right through
    ``_LabelInterner``.
    """
    if flat.size and flat.dtype.kind in "iu":
        lo = int(flat.min())
        span = int(flat.max()) - lo + 1
        if span <= max(_DENSE_SPAN_FACTOR * flat.size, 1 << 20):
            return _first_seen_ids_dense(flat.astype(np.int64), lo, span)
    uniq, first_index, inverse = np.unique(
        flat, return_index=True, return_inverse=True
    )
    order = np.argsort(first_index, kind="stable")
    remap = np.empty(uniq.size, dtype=np.int64)
    remap[order] = np.arange(uniq.size, dtype=np.int64)
    return remap[inverse], uniq[order]


def _decimal_lengths(values: np.ndarray) -> np.ndarray:
    """Length of the canonical decimal rendering of each int64 value."""
    magnitude = np.abs(values)
    powers = np.power(10, np.arange(1, 19, dtype=np.int64))
    digits = np.searchsorted(powers, magnitude, side="right") + 1
    return digits + (values < 0)


def _line_starts_of(chars: np.ndarray, newline: np.ndarray) -> np.ndarray:
    """Start offset of every line of ``chars`` (trailing newline dropped)."""
    starts = np.concatenate(([0], np.flatnonzero(newline) + np.int64(1)))
    if starts[-1] == chars.size:
        starts = starts[:-1]
    return starts


_EMPTY_RESULT: Tuple[np.ndarray, list[str]] = (
    np.empty((0, 2), dtype=np.int64), []
)


def _try_numeric_text(text: str) -> Tuple[np.ndarray, list[str]] | None:
    """Whole-text numeric fast path; None sends the caller to the
    line-splitting string path.

    Every structural property the strict parser establishes per line is
    proved here with byte-level array ops instead:

    * comment lines (first character ``#``/``%``) are masked out whole;
      indented lines bail out (the ``strip()``-exact slow path is the
      authority on those);
    * the remaining bytes must be digits, minus signs or whitespace —
      "1e3", "0x10" and "7.0" parse to integers whose canonical
      rendering differs from the token, which would break label
      equivalence with the string interner;
    * every minus sign must start a token ("1-2" is one token to the
      splitter but two numbers to ``strtod``);
    * every line must carry exactly two tokens (or none, for blank
      lines): a global token count can coincide — "1 2\\n3\\n4 5 6" has
      six tokens over three lines — while the strict parser errors on
      the one-column line;
    * each token's length must equal its value's canonical decimal
      rendering, proved in aggregate: with the charset restricted,
      every non-canonical spelling ("07", "-0") is strictly longer
      than canonical, so total-length equality pins every token.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None  # non-ascii tokens must take the string path
    chars = np.frombuffer(raw, dtype=np.uint8)
    if chars.size == 0:
        return _EMPTY_RESULT
    newline = chars == 10
    line_starts = _line_starts_of(chars, newline)
    first = chars[line_starts]
    if bool(np.any(
        (first == 32) | (first == 9) | (first == 13)
        | (first == 11) | (first == 12)
    )):
        return None  # indented or blank-padded lines: slow path decides
    comment = (first == 35) | (first == 37)
    if bool(np.any(comment)):
        line_ends = np.append(line_starts[1:], np.int64(chars.size))
        delta = np.zeros(chars.size + 1, dtype=np.int32)
        np.add.at(delta, line_starts[comment], 1)
        np.add.at(delta, line_ends[comment], -1)
        chars = chars[np.cumsum(delta[:-1]) == 0]
        if chars.size == 0:
            return _EMPTY_RESULT
        newline = chars == 10
        line_starts = _line_starts_of(chars, newline)
    digit = (chars >= 48) & (chars <= 57)
    minus = chars == 45
    separator = (
        (chars == 32) | (chars == 9) | (chars == 13)
        | (chars == 11) | (chars == 12) | newline
    )
    if not bool(np.all(digit | minus | separator)):
        return None
    token_start = ~separator
    token_start[1:] &= separator[:-1]
    minus_at = np.flatnonzero(minus)
    if minus_at.size and not bool(np.all(token_start[minus_at])):
        return None
    # Count tokens per line from the token positions: a reduceat over
    # an int64 copy of the mask would hold 8 bytes per input byte.
    token_at = np.flatnonzero(token_start)
    tokens_per_line = np.diff(
        np.searchsorted(token_at, line_starts), append=token_at.size
    )
    two_tokens = tokens_per_line == 2
    if not bool(np.all(two_tokens | (tokens_per_line == 0))):
        return None
    data_line_count = int(np.count_nonzero(two_tokens))
    if data_line_count == 0:
        return _EMPTY_RESULT
    body = raw if chars.size == len(raw) else chars.tobytes()
    values = np.fromstring(body, dtype=np.float64, sep=" ")
    if values.size != 2 * data_line_count:
        return None  # a token strtod would split differently
    if not np.all(np.isfinite(values)):
        return None  # e.g. a several-hundred-digit token overflowing strtod
    if float(np.abs(values).max()) >= _EXACT_FLOAT_BOUND:
        return None
    as_int = values.astype(np.int64)
    if not np.array_equal(as_int.astype(np.float64), values):
        return None  # defense in depth; the charset guard forbids "1.5"
    if int(np.count_nonzero(~separator)) != int(_decimal_lengths(as_int).sum()):
        return None  # some token is not its value's canonical rendering
    ids, uniq = _first_seen_ids(as_int)
    labels = [str(value) for value in uniq.tolist()]
    return ids.reshape(-1, 2), labels


def _token_pairs(
    data_lines: list[str], numbers: list[int], path_hint: str
) -> Tuple[np.ndarray, list[str]]:
    """General path: per-line split with exact legacy error reporting."""
    tokens: list[str] = []
    for line_number, line in zip(numbers, data_lines):
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"{path_hint}:{line_number}: expected at least two columns, "
                f"got {line!r}"
            )
        tokens.append(parts[0])
        tokens.append(parts[1])
    flat = np.array(tokens, dtype=np.str_)
    ids, uniq = _first_seen_ids(flat)
    return ids.reshape(-1, 2), uniq.tolist()


def read_edges_vectorized(
    stream: TextIO, path_hint: str = "<stream>"
) -> Tuple[np.ndarray, list[str]]:
    """Parse an edge-list stream into ``(edge_ids, labels)``.

    ``edge_ids`` is an (m, 2) int64 array of dense vertex ids;
    ``labels[i]`` is the original token (always ``str``) of vertex ``i``,
    in the same first-seen order the legacy line-by-line reader assigns.
    Raises :class:`GraphFormatError` with the legacy message for data
    lines with fewer than two columns.
    """
    text = "".join(_iter_chunks(stream))
    numeric = _try_numeric_text(text)
    if numeric is not None:
        return numeric
    data_lines, numbers = _collect_data_lines(text)
    if not data_lines:
        return np.empty((0, 2), dtype=np.int64), []
    return _token_pairs(data_lines, numbers, path_hint)
