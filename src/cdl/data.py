"""Loading, validation, corruption, splitting, and synthesis of ratings and content.

File formats are plain UTF-8 text:

* ratings:    one ``user<TAB>item`` pair per line; an optional leading
              ``# users=I items=J`` header pins the matrix shape.
* content:    ``item<TAB>word<TAB>count`` triples with positive counts.

Loaders and the splitter are pure functions of (input, seed); returned
matrices are immutable after construction.

Ratings and content files in the layout the writers produce (an optional
``#`` first line, then tab-separated numbers only) are parsed by one
``np.loadtxt`` call each and checked with array tests.  Any other file, and
any file those tests reject, is read one line at a time by the line walk,
which names the first bad line as ``file:line``; both give the same matrix
or the same error.  At citeulike-a's shape (one BLAS thread, 2 vCPUs),
reading a 152,267-pair ratings file takes ~20 ms in bulk against ~110 ms by
the line walk, and a 1.12M-line content file ~0.08 s against ~0.9 s.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import re
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import ArgumentError, ParseError, ValidationError

log = logging.getLogger(__name__)

BINARY_PRESENCE = "binary-presence"
COUNT_MAXNORM = "count-maxnorm"
RAW = "raw"  # values already in [0, 1], e.g. synthetic data

NORMALIZATION_MODES = (BINARY_PRESENCE, COUNT_MAXNORM, RAW)

_HEADER_RE = re.compile(r"#\s*users=(\d+)\s+items=(\d+)\s*$")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_PAIR_FIELDS = [("user", np.int64), ("item", np.int64)]
_TRIPLE_FIELDS = [("item", np.int64), ("word", np.int64), ("count", np.float64)]


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
        if pairs.size:
            if pairs.min() < 0:
                raise ValidationError("negative user or item id")
            if pairs[:, 0].max() >= num_users:
                raise ValidationError(
                    f"user id {pairs[:, 0].max()} outside [0, {num_users})"
                )
            if pairs[:, 1].max() >= num_items:
                raise ValidationError(
                    f"item id {pairs[:, 1].max()} outside [0, {num_items})"
                )
        # keys u * num_items + j rise strictly exactly when the pairs are sorted
        # by (user, item) without a repeat, as save_ratings and split give
        # them; below 2**62 the keys cannot overflow int64
        if (num_users * num_items >= 2**62
                or not (np.diff(pairs[:, 0] * num_items + pairs[:, 1]) > 0).all()):
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            dup = np.all(pairs[1:] == pairs[:-1], axis=1)
            if dup.any():
                u, j = pairs[1:][dup][0]
                raise ValidationError(f"duplicate rating pair ({u}, {j})")
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


def load_ratings(path):
    """Read a ratings file into a validated :class:`RatingsMatrix`.

    Dimensions come from a ``# users=I items=J`` header when present,
    otherwise from max id + 1.
    """
    bulk = _read_bulk(path, _PAIR_FIELDS)
    if bulk is None:
        return _walk_ratings(path)
    head, rows = bulk
    header = _HEADER_RE.match(head)
    if header:
        num_users, num_items = int(header.group(1)), int(header.group(2))
    else:
        num_users = int(rows["user"].max()) + 1 if len(rows) else 0
        num_items = int(rows["item"].max()) + 1 if len(rows) else 0
    try:
        return RatingsMatrix(num_users, num_items,
                             np.column_stack((rows["user"], rows["item"])))
    except ValidationError:
        return _walk_ratings(path)


def _read_bulk(path, fields):
    """``(first line, rows)`` of a file in the layout the writers produce:
    an optional ``#`` first line, then lines of tab-separated ``fields``,
    parsed by one ``np.loadtxt`` call into a structured array.  None when the
    body does not parse, and the caller walks the file line by line instead.

    The line walk stays the only error locator: the caller also walks a file
    whose rows fail its checks.  With ``comments=None`` a ``#`` anywhere in
    the body fails to parse, as do a whitespace-only line among rows, ids
    of 2**63 and beyond, and ``1_0`` or non-ASCII digits, which ``int()``
    takes.  Empty lines are skipped, as the line walk skips them.
    """
    with open_text(path) as fh:
        text = fh.read()
    skip = text.startswith("#")
    head, _, body = text.partition("\n") if skip else ("", "", text)
    dtype = np.dtype(fields)
    if not body or body.isspace():  # loadtxt warns on a body without rows
        return head, np.empty(0, dtype)
    try:
        return head, np.loadtxt(path, dtype=dtype, delimiter="\t", comments=None,
                                skiprows=int(skip), ndmin=1,
                                encoding="utf-8")
    except ValueError:
        return None


def _walk_ratings(path):
    """load_ratings one line at a time: a rejected file raises an error that
    names its first bad line."""
    pairs = []
    num_users = num_items = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                m = _HEADER_RE.match(line)
                if m:
                    num_users, num_items = int(m.group(1)), int(m.group(2))
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected 'user<TAB>item', got {line!r}"
                )
            try:
                pair = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: non-integer id in {line!r}"
                ) from None
            if not _INT64_MIN <= min(pair) <= max(pair) <= _INT64_MAX:
                raise ValidationError(f"{path}:{lineno}: id outside int64 in {line!r}")
            pairs.append(pair)
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    sized = num_users is None  # no header: the largest ids size the matrix
    if num_users is None:
        num_users = int(arr[:, 0].max()) + 1 if len(arr) else 0
    if num_items is None:
        num_items = int(arr[:, 1].max()) + 1 if len(arr) else 0
    try:
        return RatingsMatrix(num_users, num_items, arr)
    except ValidationError as exc:
        raise ValidationError(_bad_pair_line(path, num_users, num_items, sized)
                              or f"{path}: {exc}") from None


def _bad_pair_line(path, num_users, num_items, sized):
    """``file:line: reason`` of the first pair line (one holding a tab) that
    RatingsMatrix rejects, or None; the file is read again, so only a
    rejected file pays for line numbers.  When no pair is at fault and the
    largest ids ``sized`` the matrix, it names the largest id's first line."""
    seen = set()
    largest, lineno_of_largest = -1, None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if "\t" in line and not line.startswith("#"):
                u, j = (int(field) for field in line.split("\t"))
                if (u, j) in seen:
                    return f"{path}:{lineno}: duplicate rating pair ({u}, {j})"
                if not (0 <= u < num_users and 0 <= j < num_items):
                    return (f"{path}:{lineno}: pair ({u}, {j}) outside "
                            f"[0, {num_users}) x [0, {num_items})")
                seen.add((u, j))
                if max(u, j) > largest:
                    largest, lineno_of_largest = max(u, j), lineno
    if sized and lineno_of_largest:
        beyond = "beyond int64" if largest == _INT64_MAX else "too large to index"
        return f"{path}:{lineno_of_largest}: id {largest} sizes the matrix {beyond}"


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
    ``build`` looks up raises ParseError naming the path (and the key)."""
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


def load_content(path, mode=BINARY_PRESENCE, num_items=None, vocab_size=None,
                 item_column=True):
    """Read item/word/count triples and normalize them into [0, 1].

    Counts of duplicate (item, word) pairs are accumulated.  Items in
    [0, num_items) without any triple stay all-zero and are logged as a
    warning.  With ``item_column=False`` each line is ``word<TAB>count`` and
    belongs to item 0: the content of one new item.
    """
    bulk = _read_bulk(path, _TRIPLE_FIELDS if item_column else _TRIPLE_FIELDS[1:])
    if bulk is not None:
        rows = bulk[1]
        words, counts = rows["word"], rows["count"]
        items = rows["item"] if item_column else np.zeros(len(rows), np.int64)
        # the line walk's checks, all at once; the walk names a failure's line
        if not len(rows) or (
                ((counts > 0) & (counts < np.inf)).all()
                and items.max() < (_INT64_MAX if num_items is None else num_items)
                and words.max() < (_INT64_MAX if vocab_size is None else vocab_size)
                and min(items.min(), words.min()) >= 0):
            try:
                return _content_from_arrays(items, words, counts, mode, num_items, vocab_size)
            except ValidationError:
                pass  # too large to index: the line walk names the line
    triples = _walk_triples(path, num_items, vocab_size, item_column)
    try:
        return content_from_triples(triples, mode, num_items=num_items, vocab_size=vocab_size)
    except ValidationError as exc:
        if num_items is None and item_column:  # the largest item id sized the matrix
            raise ValidationError(
                largest_id_line(path, 0, "the matrix too large to index")) from None
        raise ValidationError(f"{path}: {exc}") from None


def _walk_triples(path, num_items=None, vocab_size=None, item_column=True):
    """load_content's (item, word, count) triples, one line at a time: a
    rejected file raises an error that names its first bad line."""
    layout = "item<TAB>word<TAB>count" if item_column else "word<TAB>count"
    triples = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if not item_column:
                fields = ["0"] + fields
            if len(fields) != 3:
                raise ParseError(f"{path}:{lineno}: expected '{layout}', got {line!r}")
            try:
                item, word, count = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad field in {line!r}") from None
            if not (count > 0 and math.isfinite(count)):
                raise ValidationError(
                    f"{path}:{lineno}: count must be positive and finite, got {count}"
                )
            if num_items is not None and item >= num_items:
                raise ValidationError(
                    f"{path}:{lineno}: item id {item} outside [0, {num_items})"
                )
            if vocab_size is not None and word >= vocab_size:
                raise ValidationError(
                    f"{path}:{lineno}: word id {word} outside vocabulary of size {vocab_size}"
                )
            if item < 0 or word < 0:
                raise ValidationError(f"{path}:{lineno}: negative id")
            if max(item, word) > _INT64_MAX:
                raise ValidationError(f"{path}:{lineno}: id outside int64 in {line!r}")
            if ((num_items is None and item == _INT64_MAX)
                    or (vocab_size is None and word == _INT64_MAX)):
                raise ValidationError(
                    f"{path}:{lineno}: id {_INT64_MAX} sizes the matrix beyond int64")
            triples.append((item, word, count))
    return triples


def largest_id_line(path, column, reason):
    """``file:line: id N sizes <reason>``, naming the first line that holds
    the largest id N of ``column`` (0 for items, 1 for words) in a content
    file the line walk accepted, when that id sized what ``reason`` rejects;
    the file is read again, so only a rejected file pays for line numbers."""
    largest, lineno_of_largest = -1, None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip() and not line.startswith("#"):
                value = int(line.split("\t")[column])
                if value > largest:
                    largest, lineno_of_largest = value, lineno
    return f"{path}:{lineno_of_largest}: id {largest} sizes {reason}"


def content_from_triples(triples, mode=BINARY_PRESENCE, num_items=None, vocab_size=None):
    """Build a normalized :class:`ContentMatrix` from (item, word, count) triples."""
    triples = list(triples)
    return _content_from_arrays(np.array([t[0] for t in triples], dtype=np.int64),
                                np.array([t[1] for t in triples], dtype=np.int64),
                                np.array([t[2] for t in triples], dtype=np.float64),
                                mode, num_items, vocab_size)


def _content_from_arrays(items, words, counts, mode, num_items, vocab_size):
    """content_from_triples on the triples' three columns."""
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
        raise ValidationError(f"matrix dimensions {num_items} x {vocab_size} "
                              "too large to index") from None
    counts.sum_duplicates()
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
                       widths=None, input_density=0.2):
    """Draw a dataset from the model's own generative story.

    Network weights and biases come from the N(0, 1/lambda_w) prior; content
    is produced by the deterministic sigmoid layer recursion from a random
    binary seed matrix, plus N(0, 1/lambda_n) output noise clipped into
    [0, 1].  Item vectors are the middle-layer codes plus N(0, 1/lambda_v)
    offsets, user vectors are N(0, 1/lambda_u), and binary ratings come from
    thresholding N(u.v, 1/conf_a) draws at 0.5.

    Returns (ratings, content, user_factors, item_factors, network).
    """
    from . import sdae  # local import: sdae does not depend on this module

    if min(num_users, num_items, vocab_size, n_factors) < 1:
        raise ArgumentError("all dimensions must be positive")
    if widths is None:
        widths = (vocab_size, n_factors, vocab_size)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(5)]
    net = sdae.sample_network(widths, hyper.lambda_w, rngs[0])

    x_seed = (rngs[1].random((num_items, vocab_size)) < input_density).astype(np.float64)
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
