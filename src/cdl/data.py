"""Loading, validation, corruption, splitting, and synthesis of ratings and content.

File formats are plain UTF-8 text:

* ratings:    one ``user<TAB>item`` pair per line; an optional leading
              ``# users=I items=J`` header pins the matrix shape.
* content:    ``item<TAB>word<TAB>count`` triples with positive counts.

Loaders and the splitter are pure functions of (input, seed); returned
matrices are immutable after construction.

A file in the layout the writers produce (an optional ``#`` first line,
then tab-separated numbers only) is parsed by one ``np.loadtxt`` call, any
other by the line walk, the one reader that decides which lines hold data
and which line each row came from.  Either way the rows pass one set of
array tests, and a rejected row is named as ``file:line`` from the walk's
line numbers, walking the text already read if need be.  At citeulike-a's
shape (one BLAS thread, 2 vCPUs), a 152,000-pair ratings file reads in
~20 ms in bulk against ~90 ms by the walk, a 1.12M-line content file in
~0.1 s against ~0.75 s.
"""

from __future__ import annotations

import array
import collections
import contextlib
import logging
import math
import os
import re
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import ArgumentError, NumericError, ParseError, ShapeError, ValidationError

log = logging.getLogger(__name__)

BINARY_PRESENCE = "binary-presence"
COUNT_MAXNORM = "count-maxnorm"
RAW = "raw"  # values already in [0, 1], e.g. synthetic data

NORMALIZATION_MODES = (BINARY_PRESENCE, COUNT_MAXNORM, RAW)

_HEADER_RE = re.compile(r"#\s*users=(\d+)\s+items=(\d+)\s*$")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

# A data line's fields (names and dtypes), the layout and the bad-field
# wording that its parse errors name, and its row from its tab-split fields.
_Layout = collections.namedtuple("_Layout", "fields text bad_field parse")
_PAIRS = _Layout([("user", np.int64), ("item", np.int64)], "user<TAB>item",
                 "non-integer id", lambda f: (int(f[0]), int(f[1])))
_TRIPLES = _Layout([("item", np.int64), ("word", np.int64), ("count", np.float64)],
                   "item<TAB>word<TAB>count", "bad field",
                   lambda f: (int(f[0]), int(f[1]), float(f[2])))
_WORD_COUNTS = _Layout(_TRIPLES.fields[1:], "word<TAB>count", "bad field",
                       lambda f: (int(f[0]), float(f[1])))
_Walk = collections.namedtuple("_Walk", "rows linenos header fault")


class RatingsMatrix:
    """Sparse binary implicit-feedback matrix.

    Stores the observed (user, item) pairs; every stored value is exactly 1
    and absence encodes 0.  Pair arrays are kept sorted and read-only so the
    matrix can be shared across threads.
    """

    def __init__(self, num_users, num_items, pairs):
        num_users = int(num_users)
        num_items = int(num_items)
        if not (0 <= num_users <= _INT64_MAX and 0 <= num_items <= _INT64_MAX):
            raise ValidationError(f"matrix dimensions {num_users} x {num_items} "
                                  "outside [0, 2**63)")
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)  # a copy, owned here
        # cheap tests first; _pair_fault names the first bad pair in input order
        if pairs.size and (pairs.min() < 0 or pairs[:, 0].max() >= num_users
                           or pairs[:, 1].max() >= num_items):
            raise ValidationError(_pair_fault(pairs, num_users, num_items, sized=False)[1])
        # keys u * num_items + j rise strictly exactly when the pairs are sorted
        # by (user, item) without a repeat, as save_ratings and split give
        # them; below 2**62 the keys cannot overflow int64
        if (num_users * num_items >= 2**62
                or not (np.diff(pairs[:, 0] * num_items + pairs[:, 1]) > 0).all()):
            ordered = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            if np.all(ordered[1:] == ordered[:-1], axis=1).any():
                raise ValidationError(_pair_fault(pairs, num_users, num_items, sized=False)[1])
            pairs = ordered
        self.num_users = num_users
        self.num_items = num_items
        self._pairs = pairs
        by_item = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
        self._item_users = np.ascontiguousarray(by_item[:, 0])
        try:
            self._user_ptr = np.searchsorted(pairs[:, 0], np.arange(num_users + 1))
            self._item_ptr = np.searchsorted(by_item[:, 1], np.arange(num_items + 1))
        except (MemoryError, ValueError):  # the allocation fails or its byte size overflows
            self._user_ptr = self._item_ptr = ()
        # np.arange(2**63) comes back empty rather than raising
        if (len(self._user_ptr), len(self._item_ptr)) != (num_users + 1, num_items + 1):
            raise ValidationError(f"matrix dimensions {num_users} x {num_items} "
                                  "too large to index")
        for arr in (self._pairs, self._user_ptr, self._item_users, self._item_ptr):
            arr.setflags(write=False)

    def __repr__(self):
        return (
            f"RatingsMatrix(num_users={self.num_users}, "
            f"num_items={self.num_items}, nnz={self.nnz})"
        )

    @property
    def pairs(self):
        """All (user, item) pairs, sorted by user then item; shape (nnz, 2)."""
        return self._pairs

    @property
    def nnz(self):
        return len(self._pairs)

    def items_of(self, user):
        """Sorted item ids rated by ``user``."""
        lo, hi = self._user_ptr[user], self._user_ptr[user + 1]
        return self._pairs[lo:hi, 1]

    def users_of(self, item):
        """Sorted user ids that rated ``item``."""
        lo, hi = self._item_ptr[item], self._item_ptr[item + 1]
        return self._item_users[lo:hi]

    def to_dense(self):
        dense = np.zeros((self.num_users, self.num_items))
        if self.nnz:
            dense[self._pairs[:, 0], self._pairs[:, 1]] = 1.0
        return dense


class ContentMatrix:
    """Items-by-vocabulary matrix with values in [0, 1], stored sparse."""

    def __init__(self, matrix, normalization_mode=RAW):
        if normalization_mode not in NORMALIZATION_MODES:
            raise ArgumentError(f"unknown normalization mode {normalization_mode!r}")
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        csr.sum_duplicates()
        csr.sort_indices()
        if csr.nnz and not (0.0 <= csr.data.min() and csr.data.max() <= 1.0):
            raise ValidationError("content values must lie in [0, 1]")  # NaN too
        self.matrix = csr
        self.num_items, self.vocab_size = csr.shape
        self.normalization_mode = normalization_mode

    def __repr__(self):
        return (
            f"ContentMatrix(num_items={self.num_items}, "
            f"vocab_size={self.vocab_size}, nnz={self.matrix.nnz}, "
            f"mode={self.normalization_mode!r})"
        )

    @property
    def nnz(self):
        return self.matrix.nnz

    def row(self, item):
        """Dense 1-D content vector of one item."""
        return np.asarray(self.matrix[item].todense()).ravel()

    def toarray(self):
        return self.matrix.toarray()


@dataclass(frozen=True)
class SplitSpec:
    """Per-user training-set size, RNG seed, and repetition count."""

    P: int
    seed: int
    repetitions: int = 1

    def __post_init__(self):
        if self.P < 1:
            raise ArgumentError("P must be at least 1")
        if self.repetitions < 1:
            raise ArgumentError("repetitions must be at least 1")
        if self.seed < 0:
            raise ArgumentError("seed must be non-negative")

    def repetition(self, rep):
        """The one-repetition spec of repetition ``rep``, seeded from (seed, rep)."""
        seed = int(np.random.SeedSequence([self.seed, rep]).generate_state(1)[0])
        return SplitSpec(self.P, seed)


@contextlib.contextmanager
def open_text(path):
    """The UTF-8 text file at ``path``, read-only; a byte sequence that is not
    UTF-8 raises ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def open_output(path, mode="w"):
    """``path`` opened for writing, as a new file for ``"w"`` (UTF-8 text)
    and ``"wb"``, or at its end for ``"a"``; every writer of the package
    opens its files here.

    A file already at ``path`` is unlinked, not truncated, so a symlink or
    hard link there is replaced, not written through.  On ext4 (with its
    default ``auto_da_alloc``) a truncating rewrite, and a rename over the
    old file too, forces the new contents to disk, and the next rewrite must
    free those blocks: ~40 ms for a 20-byte file on a ``discard`` mount,
    against ~0.03 ms for unlink then create.  Nothing is fsynced."""
    if mode != "a":
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def write_table(path, header, rows, mode="w"):
    """Write a tab-separated table through ``open_output(path, mode)``: the
    ``header`` cells (none when None), then each row's cell texts, a line
    each.  Every table artifact is written here; its caller formats the cells."""
    with open_output(path, mode) as fh:
        if header is not None:
            fh.write("\t".join(header) + "\n")
        fh.write("".join("\t".join(cells) + "\n" for cells in rows))


def load_ratings(path):
    """Read a ratings file into a validated :class:`RatingsMatrix`.

    Dimensions come from a ``# users=I items=J`` header when present,
    otherwise from max id + 1.
    """
    return _ratings(path, *_read_bulk(path, _PAIRS))


def _ratings(path, text, read):
    """load_ratings on ``text``, the contents of ``path``, with the rows and
    header of ``read``, what _read_bulk returned, or of the line walk when
    ``read`` is None."""
    read = read or _walk(path, text, _PAIRS)
    if read.fault:  # at once: a later header line could still reshape the matrix
        raise read.fault
    rows, header = read.rows, read.header
    if header:
        num_users, num_items = int(header.group(1)), int(header.group(2))
    else:  # the largest ids size the matrix
        num_users = int(rows["user"].max()) + 1 if len(rows) else 0
        num_items = int(rows["item"].max()) + 1 if len(rows) else 0
    pairs = np.column_stack((rows["user"], rows["item"]))
    try:
        return RatingsMatrix(num_users, num_items, pairs)
    except ValidationError as exc:
        fault = _pair_fault(pairs, num_users, num_items, sized=header is None)
        if fault is None:
            raise ValidationError(f"{path}: {exc}") from None
        raise _located(path, text, read, _PAIRS, *fault) from None


def _read_bulk(path, layout):
    """``(text, read)``: the contents of ``path`` and, for a file in the
    layout the writers produce (an optional ``#`` first line, then lines of
    tab-separated ``layout.fields``), the line walk's result without line
    numbers, its rows parsed by one ``np.loadtxt`` call; ``read`` is None
    when the body does not parse.  With ``comments=None`` a ``#`` anywhere
    in the body fails, as do a whitespace-only line among rows, ids of 2**63
    and beyond, and ``1_0`` or non-ASCII digits, which ``int()`` takes.
    Empty lines are skipped, as the line walk skips them.
    """
    with open_text(path) as fh:
        text = fh.read()
    skip = text.startswith("#")
    head, _, body = text.partition("\n") if skip else ("", "", text)
    dtype = np.dtype(layout.fields)
    header = _HEADER_RE.match(head)
    if not body or body.isspace():  # loadtxt warns on a body without rows
        return text, _Walk(np.empty(0, dtype), None, header, None)
    try:
        rows = np.loadtxt(path, dtype=dtype, delimiter="\t", comments=None,
                          skiprows=int(skip), ndmin=1, encoding="utf-8")
    except ValueError:
        return text, None
    return text, _Walk(rows, None, header, None)


def _walk(path, text, layout):
    """The line walk over ``text``, the contents of ``path``: the one reader
    that decides which lines hold data and which line each row came from.

    A blank line or one that starts with ``#`` holds none; the last
    ``# users=I items=J`` line is the header.  Every other line is a row of
    ``layout``, up to the first that does not parse or holds an id outside
    int64.  Returns ``_Walk(rows, linenos, header, fault)``: a structured
    array, each row's line number, the header's match, and that first bad
    line's error, which the caller raises (None when there is no header or
    no bad line).
    """
    rows, linenos, header, fault = [], array.array("q"), None, None
    for lineno, line in enumerate(text.split("\n"), 1):  # text mode: "\r\n", "\r" are "\n"
        if not line.strip():
            continue
        if line[0] == "#":
            header = _HEADER_RE.match(line) or header
            continue
        fields = line.split("\t")
        if len(fields) != len(layout.fields):
            fault = ParseError(f"{path}:{lineno}: expected '{layout.text}', got {line!r}")
            break
        try:
            rows.append(layout.parse(fields))
        except ValueError:
            fault = ParseError(f"{path}:{lineno}: {layout.bad_field} in {line!r}")
            break
        linenos.append(lineno)
    try:
        table = np.array(rows, layout.fields)
    except OverflowError:  # the first id outside int64 ends the rows
        ids = np.array(rows, object)[:, [kind is np.int64 for _, kind in layout.fields]]
        k = int(((ids < _INT64_MIN) | (ids > _INT64_MAX)).any(axis=1).argmax())
        line = text.split("\n")[linenos[k] - 1]
        fault = ValidationError(f"{path}:{linenos[k]}: id outside int64 in {line!r}")
        table, linenos = np.array(rows[:k], layout.fields), linenos[:k]
    return _Walk(table, linenos, header, fault)


def _located(path, text, read, layout, row, reason):
    """ValidationError ``file:line: reason`` naming the line of ``row``; a
    file that ``np.loadtxt`` read is walked, in memory, for line numbers."""
    linenos = _walk(path, text, layout).linenos if read.linenos is None else read.linenos
    return ValidationError(f"{path}:{linenos[row]}: {reason}")


def _pair_fault(pairs, num_users, num_items, sized):
    """``(row, reason)`` of the first pair in file order that RatingsMatrix
    rejects, a repeat or one outside the shape, or None.  When no pair is at
    fault and the largest ids ``sized`` the matrix, the first row holding the
    largest id."""
    user, item = pairs[:, 0], pairs[:, 1]
    order = np.lexsort((item, user))  # stable: a repeat follows its first row
    repeat = np.zeros(len(pairs), bool)
    repeat[order[1:]] = (pairs[order[1:]] == pairs[order[:-1]]).all(axis=1)
    bad = repeat | (user < 0) | (user >= num_users) | (item < 0) | (item >= num_items)
    if bad.any():
        k = int(bad.argmax())
        if repeat[k]:
            return k, f"duplicate rating pair ({user[k]}, {item[k]})"
        return k, (f"pair ({user[k]}, {item[k]}) outside "
                   f"[0, {num_users}) x [0, {num_items})")
    if sized and len(pairs):
        k = int(pairs.max(axis=1).argmax())
        largest = int(pairs[k].max())
        beyond = "beyond int64" if largest == _INT64_MAX else "too large to index"
        return k, f"id {largest} sizes the matrix {beyond}"


def _pairs_text(pairs):
    """``user<TAB>item`` lines of an (n, 2) pair array."""
    return "".join([f"{u}\t{j}\n" for u, j in pairs.tolist()])


def save_ratings(ratings, path):
    """Write a ratings file with a shape header (round-trips via load_ratings)."""
    with open_output(path) as fh:
        fh.write(f"# users={ratings.num_users} items={ratings.num_items}\n"
                 + _pairs_text(ratings.pairs))


def write_npz(path, **arrays):
    """Save ``arrays`` uncompressed as an npz checkpoint at ``path``, with
    ``.npz`` appended to a path without it, as ``np.savez`` does."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with open_output(path, "wb") as fh:
        np.savez(fh, **arrays)


def read_npz(path, build):
    """``build(arrays)`` on the dict of every array in an npz checkpoint.  A
    file that is not an npz, holds pickled (object) arrays or lacks a key
    ``build`` looks up raises ParseError naming the path (and the key).  An
    ArgumentError, ShapeError or NumericError from ``build`` is raised again
    as the same class, with its fields, and the path in front of its
    message."""
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with archive:
            arrays = {key: archive[key] for key in archive.files}
        return build(arrays)
    except KeyError as exc:
        raise ParseError(f"{path}: no array {exc.args[0]!r} in the checkpoint") from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"{path}: unreadable checkpoint: {exc}") from None
    except ArgumentError as exc:
        raise ArgumentError(f"{path}: {exc}", exc.fields) from None
    except (ShapeError, NumericError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_content(path, mode=BINARY_PRESENCE, num_items=None, vocab_size=None,
                 item_column=True):
    """Read item/word/count triples and normalize them into [0, 1].

    Counts of duplicate (item, word) pairs are accumulated.  Items in
    [0, num_items) without any triple stay all-zero and are logged as a
    warning.  With ``item_column=False`` each line is ``word<TAB>count`` and
    belongs to item 0: the content of one new item.
    """
    layout = _TRIPLES if item_column else _WORD_COUNTS
    return _content(path, *_read_bulk(path, layout), layout, mode, num_items, vocab_size)


def _content(path, text, read, layout, mode, num_items, vocab_size):
    """load_content on ``text``, the contents of ``path``, with the rows of
    ``read``, what _read_bulk returned, or of the line walk when ``read`` is
    None; the walk's fault is raised once the rows before it pass the rules."""
    read = read or _walk(path, text, layout)
    rows = read.rows
    words, counts = rows["word"], rows["count"]
    items = rows["item"] if layout is _TRIPLES else np.zeros(len(rows), np.int64)

    def located(k, reason):
        if k is None and (num_items is not None or layout is not _TRIPLES):
            return ValidationError(f"{path}: {reason}")
        if k is None:
            k = int(items.argmax())  # the largest item id sized the matrix
            reason = f"id {items[k]} sizes the matrix too large to index"
        return _located(path, text, read, layout, k, reason)

    fault = _content_fault(items, words, counts, num_items, vocab_size)
    if fault is None:
        if read.fault:
            raise read.fault
        return _content_from_arrays(items, words, counts, mode, num_items, vocab_size,
                                    located)
    raise located(*fault) from None


def _content_fault(items, words, counts, num_items, vocab_size):
    """``(row, reason)`` of the first row that breaks a content rule, or None.
    The rules, in the order one row is checked: a positive, finite count;
    ids inside the given shape; ids non-negative; and, where no shape is
    given, no id of 2**63 - 1, which would size the matrix beyond int64."""
    rules = [(~((counts > 0) & (counts < np.inf)),
              lambda k: f"count must be positive and finite, got {counts[k]}")]
    if num_items is not None:
        rules.append((items >= num_items,
                      lambda k: f"item id {items[k]} outside [0, {num_items})"))
    if vocab_size is not None:
        rules.append((words >= vocab_size, lambda k: f"word id {words[k]} outside "
                                                     f"vocabulary of size {vocab_size}"))
    rules.append(((items < 0) | (words < 0), lambda k: "negative id"))
    rules += [(ids == _INT64_MAX, lambda k: f"id {_INT64_MAX} sizes the matrix beyond int64")
              for ids, size in ((items, num_items), (words, vocab_size)) if size is None]
    firsts = [mask.argmax() if mask.any() else len(counts) for mask, _ in rules]
    k = min(firsts)
    return (k, rules[firsts.index(k)][1](k)) if k < len(counts) else None


def largest_id_line(path, column, reason):
    """``file:line: id N sizes <reason>``, naming the first line that holds
    the largest id N of ``column`` ("item" or "word") in a content file
    that load_content accepted, when that id sized what ``reason`` rejects."""
    with open_text(path) as fh:
        walk = _walk(path, fh.read(), _TRIPLES)
    k = int(walk.rows[column].argmax())
    return f"{path}:{walk.linenos[k]}: id {walk.rows[column][k]} sizes {reason}"


def content_from_triples(triples, mode=BINARY_PRESENCE, num_items=None, vocab_size=None):
    """Build a normalized :class:`ContentMatrix` from (item, word, count) triples."""
    rows = np.array([tuple(t) for t in triples], _TRIPLES.fields)
    return _content_from_arrays(
        rows["item"], rows["word"], rows["count"], mode, num_items, vocab_size,
        lambda k, reason: ValidationError(reason if k is None else f"triple {k}: {reason}"))


def _content_from_arrays(items, words, counts, mode, num_items, vocab_size, located):
    """content_from_triples on the triples' three columns; ``located(row,
    reason)`` is the error naming a rejected row, or the shape for row None."""
    if mode not in (BINARY_PRESENCE, COUNT_MAXNORM):
        raise ArgumentError(f"unknown normalization mode {mode!r}")
    if num_items is None:
        num_items = int(items.max()) + 1 if len(items) else 0
    if vocab_size is None:
        vocab_size = int(words.max()) + 1 if len(words) else 0
    coo = sp.coo_matrix((counts, (items, words)), shape=(num_items, vocab_size))
    try:
        counts = coo.tocsr()
    except (MemoryError, ValueError):  # the row pointers cannot be allocated
        raise located(None, f"matrix dimensions {num_items} x {vocab_size} "
                            "too large to index") from None
    counts.sum_duplicates()
    if not np.isfinite(counts.data).all():
        summed = counts[items, words].A1  # each row's pair total, in file order
        k = int(np.argmax(~np.isfinite(summed)))
        raise located(k, f"counts of item {items[k]}, word {words[k]} sum to {summed[k]}")
    lengths = np.diff(counts.indptr)
    if mode == BINARY_PRESENCE:
        counts.data = np.ones_like(counts.data)
    elif counts.nnz:
        # each row divided by its own max, as a per-row loop would
        row_max = np.maximum.reduceat(counts.data, counts.indptr[:-1][lengths > 0])
        counts.data /= np.repeat(row_max, lengths[lengths > 0])
    empty = int(np.sum(lengths == 0))
    if empty and num_items:
        log.warning("%d of %d items have all-zero content rows", empty, num_items)
    return ContentMatrix(counts, mode)


def corrupt(content, noise_level, seed):
    """Masking noise: zero each nonzero entry independently with probability
    ``noise_level``; zeros are never changed and unmasked entries keep their
    clean value.  Deterministic for a fixed seed.

    One uniform draw per stored entry decides it; the kept entries (stored
    zeros never among them) are compacted straight into a new CSR, so the
    clean matrix is neither copied nor changed."""
    if not 0.0 <= noise_level <= 1.0:
        raise ArgumentError(f"noise level must lie in [0, 1], got {noise_level}")
    rng = np.random.default_rng(seed)
    clean = content.matrix
    kept = np.flatnonzero((rng.random(clean.nnz) >= noise_level) & (clean.data != 0))
    csr = sp.csr_matrix((clean.data[kept], clean.indices[kept],
                         np.searchsorted(kept, clean.indptr)), shape=clean.shape)
    return ContentMatrix(csr, content.normalization_mode)


def split(ratings, spec):
    """Per-user train/test split.

    For each user with more than ``spec.P`` rated items, exactly P uniformly
    chosen items go to train and the rest to test; that user joins the
    evaluation set.  Users with at most P items keep everything in train and
    are excluded from evaluation.
    """
    rng = np.random.default_rng(spec.seed)
    train_parts, test_parts = [], []
    eval_users = set()
    for user in range(ratings.num_users):
        items = ratings.items_of(user)
        if len(items) == 0:
            continue
        if len(items) <= spec.P:
            picked = items
            rest = items[:0]
        else:
            idx = rng.choice(len(items), size=spec.P, replace=False)
            mask = np.zeros(len(items), dtype=bool)
            mask[idx] = True
            picked, rest = items[mask], items[~mask]
            eval_users.add(user)
        train_parts.append(np.column_stack([np.full(len(picked), user), picked]))
        if len(rest):
            test_parts.append(np.column_stack([np.full(len(rest), user), rest]))
    train_pairs = np.concatenate(train_parts) if train_parts else np.empty((0, 2), np.int64)
    test_pairs = np.concatenate(test_parts) if test_parts else np.empty((0, 2), np.int64)
    train = RatingsMatrix(ratings.num_users, ratings.num_items, train_pairs)
    test = RatingsMatrix(ratings.num_users, ratings.num_items, test_pairs)
    return train, test, eval_users


def split_repetitions(ratings, spec):
    """Yield ``spec.repetitions`` independent splits with derived seeds."""
    for rep in range(spec.repetitions):
        yield split(ratings, spec.repetition(rep))


def write_split_manifest(path, train, spec):
    """Record seed, P, and the train pair list so a split can be reproduced."""
    with open_output(path) as fh:
        fh.write(f"seed={spec.seed}\nP={spec.P}\nusers={train.num_users}\n"
                 f"items={train.num_items}\n" + _pairs_text(train.pairs))


def generate_synthetic(num_users, num_items, vocab_size, n_factors, hyper, seed,
                       widths=None):
    """Draw a dataset from the model's own generative story.

    Network weights and biases come from the N(0, 1/lambda_w) prior; content
    is produced by the deterministic sigmoid layer recursion from a random
    binary seed matrix of density 0.2, plus N(0, 1/lambda_n) output noise
    clipped into [0, 1].  Item vectors are the middle-layer codes plus
    N(0, 1/lambda_v) offsets, user vectors are N(0, 1/lambda_u), and binary
    ratings come from thresholding N(u.v, 1/conf_a) draws at 0.5.

    Returns (ratings, content, user_factors, item_factors, network).
    """
    from . import sdae  # local import: sdae imports read_npz and write_npz from here

    if min(num_users, num_items, vocab_size, n_factors) < 1:
        raise ArgumentError("all dimensions must be positive")
    if widths is None:
        widths = (vocab_size, n_factors, vocab_size)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(5)]
    net = sdae.sample_network(widths, hyper.lambda_w, rngs[0])

    x_seed = (rngs[1].random((num_items, vocab_size)) < 0.2).astype(np.float64)
    outputs = sdae.forward(net, x_seed)
    codes, clean = outputs[net.middle], outputs[net.num_layers]
    if math.isfinite(hyper.lambda_n):
        clean = clean + rngs[2].normal(scale=hyper.lambda_n ** -0.5, size=clean.shape)
    content = ContentMatrix(np.clip(clean, 0.0, 1.0), RAW)

    if math.isfinite(hyper.lambda_v):
        offsets = rngs[3].normal(scale=hyper.lambda_v ** -0.5, size=codes.shape)
    else:
        offsets = np.zeros_like(codes)
    item_factors = codes + offsets
    user_factors = rngs[3].normal(
        scale=hyper.lambda_u ** -0.5, size=(num_users, n_factors)
    )
    scores = user_factors @ item_factors.T
    noisy = scores + rngs[4].normal(scale=hyper.conf_a ** -0.5, size=scores.shape)
    pairs = np.argwhere(noisy > 0.5)
    ratings = RatingsMatrix(num_users, num_items, pairs)
    return ratings, content, user_factors, item_factors, net
