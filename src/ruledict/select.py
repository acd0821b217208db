"""Dictionary-constrained best-subset selection by ordinary least squares.

Every entry of a selection dictionary is fitted by OLS (intercept always
included, never selected) and scored. Smaller scores are better for all
criteria; adjusted R-squared is negated to keep that orientation.
Cross-validation uses contiguous row blocks so repeated runs are
bit-for-bit identical; shuffling is opt-in via a seed.
"""

from __future__ import annotations

import csv
import itertools
import math
import mmap
import operator
import os
import sys
from array import array

import numpy as np

from .core import Dictionary, Record, Universe, VarSet
from .errors import (
    ConstantOutcome,
    DatasetTooSmall,
    EmptyDictionary,
    MissingValue,
    ParseError,
    RankDeficient,
    RuledictError,
    SchemaMismatch,
    Underdetermined,
)

CRITERIA = ("aic", "bic", "adjr2", "cv")

_MISSING_TOKENS = {"", "na", "nan", "n/a", "null", "none"}


class Dataset(Record):
    """Numeric design data: one column per universe variable plus an outcome."""

    __slots__ = ("universe", "outcome", "X", "y")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity: == on arrays is elementwise
    universe: Universe
    outcome: str
    X: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]


def _records(fh, path):
    """The CSV records of the text file ``fh``, with a decoding error or a malformed
    record raised as a ParseError that names ``path`` (``csv.field_size_limit``
    is global to the process, so an over-long field is such a record)."""
    rownum = 0
    try:
        for rownum, record in enumerate(csv.reader(fh), start=1):
            yield record
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: row {rownum + 1}: {exc}", row=rownum + 1) from None


def _checked_values(record: list[str], rownum: int, needed: list[str], cols: list[int]) -> list[float]:
    """The values of ``record`` at ``cols``, each cell checked in turn:
    the error for the first that is absent, missing, not a number or not
    finite, in the column named by ``needed``."""
    values = []
    for name, idx in zip(needed, cols):
        where = f"row {rownum}, column {name!r}"
        if idx >= len(record):
            raise MissingValue(f"row {rownum} has no value for column {name!r}", row=rownum, column=name)
        cell = record[idx].strip()
        if cell.lower() in _MISSING_TOKENS:
            raise MissingValue(f"missing value at {where}", row=rownum, column=name)
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"non-numeric cell {cell!r} at {where}", row=rownum, column=name) from None
        if not math.isfinite(value):
            raise MissingValue(f"non-finite value at {where}", row=rownum, column=name)
        values.append(value)
    return values


def load_dataset(path, outcome: str, u: Universe) -> Dataset:
    """Read a CSV with a header row into a validated Dataset.

    The header must contain every universe name and the outcome column;
    extra columns are ignored. Cells must be finite numbers. Rows are
    reported 1-based counting the header, columns by name.
    """
    if outcome in u:
        raise SchemaMismatch(f"outcome column {outcome!r} is also a covariate")
    # utf-8-sig drops the byte order mark that spreadsheet tools write.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch("empty file: no header row") from None
        header = [h.strip() for h in header]
        positions = {}
        for idx, name in enumerate(header):
            if name not in positions:
                positions[name] = idx
        needed = list(u.names) + [outcome]
        for name in needed:
            if name not in positions:
                raise SchemaMismatch(f"missing column {name!r} in header")
        cols = [positions[name] for name in needed]
        flat = array("d")
        for rownum, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            try:
                values = [float(record[idx]) for idx in cols]
            except (IndexError, ValueError):
                values = None
            # A non-finite sum flags a non-finite cell, or finite cells whose sum overflows.
            if values is None or not math.isfinite(sum(values)):
                values = _checked_values(record, rownum, needed, cols)
            flat.fromlist(values)
    rows = len(flat) // len(cols)
    if rows < 2:
        raise DatasetTooSmall(f"need at least 2 data rows, found {rows}")
    data = np.frombuffer(flat, dtype=np.float64).reshape(rows, len(cols))
    return Dataset(universe=u, outcome=outcome, X=data[:, : u.size], y=data[:, u.size])


class FitResult(Record):
    """One OLS fit: subset, intercept-first coefficients, and fit sums."""

    __slots__ = ("subset", "intercept", "coefficients", "rss", "tss", "k")
    subset: VarSet
    intercept: float
    coefficients: tuple[float, ...]  # aligned with sorted(subset) names
    rss: float
    tss: float
    k: int  # parameters estimated: |subset| + 1 for the intercept

    def coefficient_map(self) -> dict[str, float]:
        return dict(zip(self.subset, self.coefficients))


def _fit(Z: np.ndarray, y: np.ndarray, cols: list[int], s: VarSet, tss: float) -> FitResult:
    """OLS of ``y`` on the columns ``cols`` of ``Z``, the fit of subset ``s``.

    ``Z`` is the intercept column followed by one column per universe
    variable, and ``cols`` is 0 then ``1 + i`` for each variable ``i`` of
    ``s``. ``Z[:, cols]`` is Fortran-ordered like a design stacked column
    by column, and the last bits of ``design @ beta`` depend on that layout.
    """
    k = len(cols)
    if k > y.shape[0]:
        raise Underdetermined(f"{k} parameters but only {y.shape[0]} rows")
    design = Z[:, cols]
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < k:
        raise RankDeficient(f"design for {s.to_text()} has rank {rank} < {k}")
    resid = y - design @ beta
    coefficients = beta.tolist()
    # By position (subset, intercept, coefficients, rss, tss, k): binding keywords costs more.
    return FitResult(s, coefficients[0], tuple(coefficients[1:]), float(resid @ resid), tss, k)


def _shared(d: Dataset) -> tuple[np.ndarray, float]:
    """What every fit on ``d`` shares: ``Z``, the intercept column followed
    by every covariate column, and the total sum of squares of the outcome.

    A sum of squares past the float64 range is a RuledictError: scores
    built on it would be infinite or NaN and rank nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centered = d.y - d.y.mean()
        tss = float(centered @ centered)
    if not math.isfinite(tss):
        raise RuledictError(f"outcome column {d.outcome!r}: sum of squares overflows float64")
    return np.column_stack([np.ones(d.n), d.X]), tss


def fit_ols(d: Dataset, s: VarSet) -> FitResult:
    """Least squares with intercept for one subset.

    Uses an orthogonal decomposition (numpy lstsq) rather than the
    normal equations. Rank deficiency is an error: silently dropping a
    column would change which subset was actually fitted. So is a subset
    of another universe, whose names would pick the columns in its order.
    """
    if s.universe != d.universe:
        raise SchemaMismatch("subset and dataset use different universes")
    Z, tss = _shared(d)
    return _fit(Z, d.y, [0] + [d.universe.index(name) + 1 for name in s], s, tss)


def score(f: FitResult, criterion: str, n: int) -> float:
    """Score a fit; smaller is always better.

    AIC and BIC use the gaussian profile likelihood with the variance
    counted as one extra parameter. Adjusted R-squared is negated.
    A perfect fit (rss exactly 0) scores -inf for every criterion, so
    perfect fits rank first and ties fall to the smaller subset.
    """
    if criterion not in ("aic", "bic", "adjr2"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if f.rss == 0.0:
        return float("-inf")
    if criterion == "aic":
        return n * math.log(f.rss / n) + 2 * (f.k + 1)
    if criterion == "bic":
        return n * math.log(f.rss / n) + (f.k + 1) * math.log(n)
    if n <= f.k:
        raise DatasetTooSmall(f"adjusted r2 needs n > {f.k}, have n={n}")
    if f.tss == 0.0:
        raise ConstantOutcome("adjusted r2 is undefined: every outcome value is the same")
    r2 = 1.0 - f.rss / f.tss
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / (n - f.k)
    return -adjusted


class ScoredModel(Record):
    __slots__ = ("subset", "score", "intercept", "coefficients")
    subset: VarSet
    score: float
    intercept: float
    coefficients: tuple[float, ...]


class RankedModels(Record):
    """All fitted models for one run, best first.

    A ranking from :func:`select_best` keeps its fits in one float64 block
    with one index order over it, and builds ``models`` when first read.
    """

    __slots__ = ("criterion", "models", "_block")
    criterion: str
    models: tuple[ScoredModel, ...]

    @classmethod
    def _of_block(cls, criterion: str, u: Universe, masks: tuple[int, ...], block: np.ndarray) -> RankedModels:
        """The models ``masks``, whose score, intercept and coefficients follow each other in ``block``,
        ranked by score, then subset size, then mask.

        A NaN score compares false both ways, so only Python's sort of the
        key tuples in mask order puts it where that sort does.
        """
        sizes = np.fromiter(map(int.bit_count, masks), np.int64, len(masks))
        offsets = np.zeros(len(masks) + 1, np.int64)
        np.cumsum(sizes + 2, out=offsets[1:])
        scores = block[offsets[:-1]]
        if np.isnan(scores).any():
            keys = scores.tolist()
            order = np.array(sorted(range(len(masks)), key=lambda i: (keys[i], masks[i].bit_count(), masks[i])))
        else:
            order = np.lexsort((np.fromiter(masks, np.uint64, len(masks)), sizes, scores))
        ranked = object.__new__(cls)
        cls.criterion.__set__(ranked, criterion)
        cls._block.__set__(ranked, (u, masks, block, offsets, order))
        return ranked

    def __getattr__(self, name: str):
        # Reached when lookup fails: the empty models slot of a ranking made by _of_block is built here.
        if name != "models":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        u = self._block[0]
        models = tuple([ScoredModel(VarSet(u, mask), values[0], values[1], tuple(values[2:]))
                        for mask, values in self._ranked()])
        RankedModels.models.__set__(self, models)
        return models

    def _ranked(self):
        """Each model's mask and its values as floats, score first, in rank order:
        256 models at a time, gathered from the block by one index array."""
        _, masks, block, offsets, order = self._block
        for start in range(0, len(order), 256):
            rows = order[start:start + 256]
            firsts, lens = offsets[rows], offsets[rows + 1] - offsets[rows]
            values = block[np.repeat(firsts + lens - np.cumsum(lens), lens) + np.arange(lens.sum())].tolist()
            at = 0
            for row, n in zip(rows.tolist(), lens.tolist()):
                yield masks[row], values[at:at + n]
                at += n

    @property
    def best(self) -> ScoredModel:
        return self.models[0]

    def ranking(self) -> list[tuple[VarSet, float]]:
        return [(m.subset, m.score) for m in self.models]


def _fold_bounds(n: int, folds: int) -> list[tuple[int, int]]:
    # Contiguous blocks whose sizes differ by at most one, the larger ones first.
    base, rem = divmod(n, folds)
    starts = [i * base + min(i, rem) for i in range(folds + 1)]
    return list(zip(starts, starts[1:]))


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(const: int, mult: int):
    """numpy ``SeedSequence``'s word hash: each call xors a word with the
    running constant, steps the constant by ``mult``, multiplies, folds
    the high half in; all modulo 2**32."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    """``SeedSequence``'s mix of pool word ``x`` with hashed word ``y``, modulo 2**32."""
    r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return r ^ r >> 16


def _pcg64(seed: int):
    """The 64-bit outputs of numpy's ``PCG64(seed)``.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of
    four and draws eight state words from it; their 64-bit pairs seed a
    128-bit LCG, which steps before each XSL-RR output.
    """
    words = [seed >> s & _M32 for s in range(0, seed.bit_length() or 1, 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    # Word pairs are little-endian 64-bit words: the first pair is the high
    # half of the LCG's seed, the second its low half; the next two, its stream.
    state = sum(hashmix(pool[i % 4]) << 32 * (i ^ 2) for i in range(8))
    init, inc = state & _M128, (state >> 128 << 1 | 1) & _M128
    state = (inc + init) * 0x2360ED051FC65DA44385DF649FCCF645 + inc & _M128
    while True:
        state = state * 0x2360ED051FC65DA44385DF649FCCF645 + inc & _M128
        out, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (out >> rot | out << 64 - rot) & _M64


def _permutation(seed: int, n: int) -> list[int]:
    """``numpy.random.default_rng(seed).permutation(n).tolist()``, in pure Python:
    numpy's Fisher-Yates shuffle from the top, each index drawn by masked
    rejection from 32-bit halves of the outputs (low half first), or from
    whole outputs above ``2**32 - 1``. ``numpy.random`` would cost ``select``
    more memory than its fits, and numpy may change its stream between versions.
    """
    raw = _pcg64(operator.index(seed))
    draw64, draw32 = raw.__next__, (half for value in raw for half in (value & _M32, value >> 32)).__next__
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        mask, draw = (1 << i.bit_length()) - 1, draw32 if i <= _M32 else draw64
        while (j := draw() & mask) > i:
            pass
        order[i], order[j] = order[j], order[i]
    return order


def _cv_blocks(Z: np.ndarray, y: np.ndarray, folds: int, seed: int | None) -> list[tuple]:
    """Per fold: the training ``Z`` and ``y``, the held-out ``Z`` and ``y``.

    Rows are shuffled by ``seed`` first, when one is given. The training
    ``Z`` is Fortran-ordered, so a model's columns are whole-column copies.
    """
    n = y.shape[0]
    if seed is not None:
        order = _permutation(seed, n)
        Z, y = Z[order], y[order]
    blocks = []
    for start, end in _fold_bounds(n, folds):
        keep = np.concatenate([np.arange(0, start), np.arange(end, n)])
        blocks.append((np.asfortranarray(Z[keep]), y[keep], Z[start:end], y[start:end]))
    return blocks


#: Models per chunk: the unit of work a process claims and stores, and
#: that this process re-runs when no process stored it.
_CHUNK = 64


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _single_threaded() -> bool:
    """Whether the calling thread is the only one in this process, native
    threads such as a BLAS pool included; False where ``/proc`` cannot say.

    fork copies only the calling thread, and workers that each ran a BLAS
    pool would contend for the same CPUs.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _claims(queue: int):
    """Chunk indices read from the shared queue until it is empty.

    Forked processes share the queue's file offset, and each 4-byte read
    moves it on, so each index goes to one reader.
    """
    while len(claim := os.read(queue, 4)) == 4:
        yield int.from_bytes(claim, "little")


def _run_chunks(run, masks: tuple[int, ...]) -> np.ndarray:
    """The float64 array that ``run`` fills for ``masks``, by chunks of :data:`_CHUNK` masks in forked workers.

    ``run(chunk, out)`` writes ``2 + popcount`` floats per mask of ``chunk``
    into ``out``, a slice of one shared block fixed by chunk index. One
    worker is forked per usable CPU beyond the first, and this process
    claims chunks as well. A chunk counts once its done byte is set after
    ``run`` returns; workers leave by ``os._exit`` without writing to
    stdout or stderr. A chunk without its done byte, even one a worker
    left half written, is run again here, in mask order, so an error is
    the one a serial run raises. Without fork, with one usable CPU or
    chunk, or while another thread runs in this process, every chunk is
    run here. The array is a view of the block, which is unmapped when
    the array goes.
    """
    chunks = [masks[i:i + _CHUNK] for i in range(0, len(masks), _CHUNK)]
    ends = list(itertools.accumulate(sum(2 + m.bit_count() for m in c) for c in chunks))
    starts = [0, *ends[:-1]]
    done_at = 8 * ends[-1]  # a done byte per chunk follows the floats
    shared = mmap.mmap(-1, done_at + len(chunks))
    block = np.frombuffer(shared, np.float64, ends[-1])

    def store(c: int) -> None:
        run(chunks[c], block[starts[c]:ends[c]])
        shared[done_at + c] = 1

    procs = min(_usable_cpus(), len(chunks))
    if procs > 1 and hasattr(os, "fork") and hasattr(os, "memfd_create") and _single_threaded():
        queue = os.memfd_create("ruledict-chunks")
        pids = []
        try:
            os.write(queue, b"".join(c.to_bytes(4, "little") for c in range(len(chunks))))
            os.lseek(queue, 0, os.SEEK_SET)
            sys.stdout.flush()
            sys.stderr.flush()
            for _ in range(procs - 1):
                try:
                    pid = os.fork()
                except OSError:
                    break  # no more processes: the ones running share the chunks
                if pid == 0:
                    try:
                        for c in _claims(queue):
                            store(c)
                    finally:
                        os._exit(0)
                pids.append(pid)
            try:
                for c in _claims(queue):
                    store(c)
            except Exception:
                pass  # raised again below, unless an earlier chunk fails first
        finally:
            # Empty the queue, so each worker stops after its current chunk.
            for _ in _claims(queue):
                pass
            os.close(queue)
            for pid in pids:
                os.waitpid(pid, 0)
    for c in range(len(chunks)):
        if not shared[done_at + c]:
            store(c)
    return block


def select_best(
    d: Dataset,
    D: Dictionary,
    criterion: str,
    folds: int | None = None,
    seed: int | None = None,
) -> RankedModels:
    """Fit and score every dictionary entry; return them ranked.

    ``criterion`` is one of aic, bic, adjr2, cv. Cross-validation
    requires ``folds``; its score is the held-out squared error pooled
    over all rows, and the reported coefficients still come from the
    full-data fit. ``seed`` shuffles rows before blocking into folds;
    ``folds`` and ``seed`` are errors for the other criteria, and
    ``seed`` must be non-negative. Ties rank the smaller subset first,
    then canonical subset order; ``-0.0`` ties with ``0.0``. A NaN score
    ranks where Python's sort of the ``(score, size, mask)`` tuples of the
    models in mask order puts it.

    The models are fitted in chunks of :data:`_CHUNK` masks, shared
    among this process and forked workers, one process per usable CPU,
    while no other thread runs here. A BLAS thread pool counts as such a
    thread, so the fits are forked out only when numpy was loaded with
    one BLAS thread (``OPENBLAS_NUM_THREADS=1``, as the ``select``
    command sets it). Every process writes the fits of its chunks straight
    into one shared float64 block, and the ranking is one index order over that
    block: the same bits on any CPU count, and no record or float object
    per model until ``models`` is read. An error is the one the first
    failing model in mask order raises.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "cv":
        if folds is None:
            raise ValueError("criterion 'cv' requires folds")
        if folds < 2:
            raise ValueError("folds must be at least 2")
        if folds > d.n:
            raise DatasetTooSmall(f"{folds} folds but only {d.n} rows")
        if seed is not None and seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    elif folds is not None or seed is not None:
        raise ValueError(f"folds and seed apply only to criterion 'cv', not {criterion!r}")
    if not D:
        raise EmptyDictionary(
            "the dictionary is empty (an incoherent rule admits no subsets), "
            "so there is nothing to select from"
        )
    if D.universe != d.universe:
        raise SchemaMismatch("dictionary and dataset use different universes")
    u, n, y = d.universe, d.n, d.y
    Z, tss = _shared(d)
    masks = D.masks()
    if criterion == "cv":
        largest = max(m.bit_count() for m in masks)
        min_train = n - max(end - start for start, end in _fold_bounds(n, folds))
        if largest + 1 > min_train:
            raise DatasetTooSmall(
                f"training folds of {min_train} rows cannot fit {largest + 1} parameters"
            )
        blocks = _cv_blocks(Z, y, folds, seed)

    def run(chunk: tuple[int, ...], out: np.ndarray) -> None:
        """Write each model's score, intercept and coefficients into ``out``, one model after another."""
        at = 0
        for mask in chunk:
            subset = VarSet(u, mask)
            cols = [0] + [i + 1 for i in range(u.size) if mask >> i & 1]
            fit = _fit(Z, y, cols, subset, tss)
            if criterion == "cv":
                total = 0.0
                for train_Z, train_y, test_Z, test_y in blocks:
                    beta, _, rank, _ = np.linalg.lstsq(train_Z[:, cols], train_y, rcond=None)
                    if rank < fit.k:
                        raise RankDeficient(
                            f"training fold design for {subset.to_text()} is rank deficient"
                        )
                    # take() keeps the held-out design C-ordered; the product's last
                    # bits depend on that layout.
                    err = test_y - test_Z.take(cols, axis=1) @ beta
                    total += float(err @ err)
                value = total / n
            else:
                value = score(fit, criterion, n)
            out[at:at + 1 + fit.k] = (value, fit.intercept, *fit.coefficients)
            at += 1 + fit.k

    return RankedModels._of_block(criterion, u, masks, _run_chunks(run, masks))
