"""Covariate universes, variable subsets, and dictionaries.

A :class:`Universe` fixes an ordered list of covariate names. A
:class:`VarSet` is one subset of those covariates, stored as a bit mask
keyed by universe index (index 0 is the least significant bit). A
:class:`Dictionary` is a deduplicated family of VarSets kept in canonical
order: ascending by the integer value of the mask, which keeps every
serialized form bit-stable across runs. It is stored as a bitmap over
all ``2**n`` masks, or as a sorted mask tuple over more than
:data:`BITMAP_MAX_VARS` covariates. Only this module knows the storage:
other modules work through the Dictionary methods.

All types are immutable; operations are pure functions.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, lru_cache, reduce
from itertools import accumulate, combinations, filterfalse, repeat
from math import comb
from operator import and_, attrgetter, or_
from typing import Iterable, Iterator

from .errors import (
    DuplicateVariable,
    EnumerationTooLarge,
    UniverseTooLarge,
    UnknownVariable,
    ParseError,
)

#: Hard cap on universe size; masks live in a single 64-bit word.
MAX_UNIVERSE = 64

#: Default cap on the number of entries any full enumeration may produce.
DEFAULT_MAX_ENUM = 2 ** 20

#: Largest universe whose dictionaries are stored as a ``2**n``-bit map.
#: Every bitmap operation costs O(2**n) whatever the family size. Up to 20
#: covariates the powerset fits under the default enumeration cap, and a
#: bitmap beats a mask tuple on large families while costing at most a few
#: milliseconds on small ones. Above 20 a family under the default cap
#: fills at most half of the map, and the tuple wins on small families.
BITMAP_MAX_VARS = 20


class Record:
    """Base of the immutable value classes.

    A subclass names its fields in ``__slots__`` (a slot named ``_...`` is
    not a field) and may give defaults for trailing fields in ``_defaults``.
    A record is built from positional or keyword values, checked by
    ``__post_init__``, equal only to a record of its own class with the same
    field tuple, hashed as that tuple, and pickled as its field values.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        own = [name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_")]
        cls._fields = fields = cls._fields + tuple(own)
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        if fields:  # attrgetter gives a tuple for two or more names only
            get, many = attrgetter(*fields), len(fields) > 1
            cls._values = staticmethod(get if many else lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of ``cls(*args, **kwargs)``, in field order."""
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(cls._fields) or given.keys() & kwargs or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}, got {args} and {kwargs}")
        return tuple([values[name] for name in cls._fields])

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class Universe(Record):
    """An ordered, immutable set of covariate names with stable indices.

    Names are non-empty strings (else :class:`ParseError`), at most 64 (else
    :class:`UniverseTooLarge`), and none repeats (else :class:`DuplicateVariable`).
    """

    __slots__ = ("names", "_index")
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))  # a tuple is kept as it is
        index = {}
        for i, n in enumerate(self.names):
            if not isinstance(n, str) or not n:
                raise ParseError(f"invalid variable name {n!r}")
            index.setdefault(n, i)
        if len(self.names) > MAX_UNIVERSE:
            raise UniverseTooLarge(f"{len(self.names)} covariates exceed the cap of {MAX_UNIVERSE}")
        if len(index) < len(self.names):
            first = next(n for i, n in enumerate(self.names) if index[n] != i)
            raise DuplicateVariable(f"duplicate variable {first!r}")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        """Mask with one bit set per covariate."""
        return (1 << len(self.names)) - 1

    def index(self, name: str) -> int:
        """Return the stable index of ``name``.

        Raises
        ------
        UnknownVariable
            If the universe has no covariate called ``name``.
        """
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name is no name either
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index


def make_universe(names: Iterable[str]) -> Universe:
    """A :class:`Universe` of ``names``, in their order, which fixes every mask and canonical form."""
    return Universe(names)


class VarSet(Record):
    """One subset of a universe's covariates, as a bit mask."""

    __slots__ = ("universe", "mask")
    universe: Universe
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.universe.size:
            raise UnknownVariable(
                f"mask {self.mask:#x} has bits outside the {self.universe.size}-covariate universe"
            )

    @classmethod
    def of_names(cls, universe: Universe, names: Iterable[str]) -> "VarSet":
        """Build from covariate names.

        Raises
        ------
        UnknownVariable
            If any name is not in ``universe``.
        """
        return cls.of_indices(universe, map(universe.index, names))

    @classmethod
    def of_indices(cls, universe: Universe, indices: Iterable[int]) -> "VarSet":
        mask = 0
        for i in indices:
            mask |= 1 << i
        return cls(universe, mask)

    @classmethod
    def empty(cls, universe: Universe) -> "VarSet":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: Universe) -> "VarSet":
        return cls(universe, universe.full_mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        """Yield member names in universe index order."""
        for i, n in enumerate(self.universe.names):
            if self.mask >> i & 1:
                yield n

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.universe.index(name) & 1)

    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def _other_mask(self, other: "VarSet") -> int:
        """``other``'s mask, which must be over this universe: one over another is not relabelled."""
        if other.universe is not self.universe and other.universe != self.universe:
            raise UnknownVariable(f"{other.to_text()} is over another universe than {self.to_text()}")
        return other.mask

    def union(self, other: "VarSet") -> "VarSet":
        return VarSet(self.universe, self.mask | self._other_mask(other))

    def intersection(self, other: "VarSet") -> "VarSet":
        return VarSet(self.universe, self.mask & self._other_mask(other))

    def difference(self, other: "VarSet") -> "VarSet":
        return VarSet(self.universe, self.mask & ~self._other_mask(other))

    def complement(self) -> "VarSet":
        return VarSet(self.universe, self.universe.full_mask & ~self.mask)

    def issubset(self, other: "VarSet") -> bool:
        return self.mask & ~self._other_mask(other) == 0

    def __le__(self, other: "VarSet") -> bool:
        return self.issubset(other)

    def to_text(self) -> str:
        """Brace form, members in universe index order: ``{A,B}``; empty is ``{}``."""
        return "{" + ",".join(self) + "}"

    def __repr__(self) -> str:
        return f"VarSet({self.to_text()})"


class Dictionary:
    """A family of VarSets in canonical order.

    Entries are deduplicated and listed ascending by mask value. The empty
    family (no permissible model at all) is distinct from the one-entry
    family containing only the empty VarSet (only the empty model).

    Over at most :data:`BITMAP_MAX_VARS` covariates the family is stored as
    one int with bit ``m`` set exactly when the subset with mask ``m`` is
    admitted, so set algebra is integer bit algebra. Over a larger
    universe the family is a sorted tuple of masks, since there the map
    costs more than it saves. The choice depends on the universe size
    alone. ``masks()`` decodes a bitmap on each call, and ``entries`` and
    iteration build their VarSets from it each time. Only ``_lookup`` is
    kept, built on first use: a bitmap's little-endian bytes, which
    membership tests, :meth:`halves` and :meth:`complements` read, or the
    set of a tuple's masks, which the union checks and :meth:`negated`
    probe. The JSON writer reads :meth:`halves`, which decodes a bitmap
    one run at a time, so no mask tuple of the whole family is built.
    """

    __slots__ = ("universe", "_data", "_lookup")

    def __init__(self, universe: Universe, entries: Iterable[VarSet] = ()):
        entries = tuple(entries)
        for v in entries:
            if v.universe != universe:
                raise UnknownVariable(f"entry {v.to_text()} is over another universe")
        self.universe = universe
        self._data = _pack(universe, (v.mask for v in entries))
        self._lookup = None

    @classmethod
    def _of(cls, universe: Universe, data) -> "Dictionary":
        """Wrap already-packed data (a bitmap or a sorted mask tuple)."""
        d = cls.__new__(cls)
        d.universe = universe
        d._data = data
        d._lookup = None
        return d

    @property
    def _bitmap(self) -> bool:
        return self.universe.size <= BITMAP_MAX_VARS

    @classmethod
    def from_masks(cls, universe: Universe, masks: Iterable[int]) -> "Dictionary":
        """Build from masks in any order, duplicates allowed.

        Raises
        ------
        UnknownVariable
            If a mask is negative or has bits outside the universe.
        """
        return cls._of(universe, _pack(universe, masks))

    @classmethod
    def of_counts(
        cls, universe: Universe, scope_mask: int, counts: Iterable[int], max_entries: int = DEFAULT_MAX_ENUM
    ) -> "Dictionary":
        """Every subset whose overlap with ``scope_mask`` has one of ``counts`` members.

        In a bitmap, setting bit ``i`` in every member is a shift by
        ``2**i``, so the family is built by per-count doubling:
        ``layers[c]`` holds the subsets of the scope variables seen so far
        with ``c`` members, and each scope variable ``i`` ORs
        ``layers[c - 1] << 2**i`` into ``layers[c]``. Over larger universes
        the scope subsets of each wanted count are listed directly, since
        the other layers can be far larger than the result. Each variable
        outside the scope then doubles the family. Counts above the scope
        size contribute nothing. A result over ``max_entries`` entries, by
        the closed form sum of C(|scope|, c) * 2**(n - |scope|) over the
        counts kept, raises EnumerationTooLarge before anything is listed.
        """
        width = scope_mask.bit_count()
        counts = sorted({c for c in counts if c <= width})
        size = sum(comb(width, c) for c in counts) << (universe.size - width)
        if size > max_entries:
            raise EnumerationTooLarge(f"unit dictionary would have {size} entries, over the cap of {max_entries}")
        scope = [i for i in range(universe.size) if scope_mask >> i & 1]
        free = [i for i in range(universe.size) if not scope_mask >> i & 1]
        if universe.size <= BITMAP_MAX_VARS:
            layers = [1] + [0] * (counts[-1] if counts else 0)
            for i in scope:
                for c in range(len(layers) - 1, 0, -1):
                    layers[c] |= layers[c - 1] << (1 << i)
            bits = 0
            for c in counts:
                bits |= layers[c]
            for i in free:
                bits |= bits << (1 << i)
            return cls._of(universe, bits)
        masks = [sum(1 << i for i in combo) for c in counts for combo in combinations(scope, c)]
        for i in free:
            masks += [m | 1 << i for m in masks]
        return cls._of(universe, tuple(sorted(masks)))

    def masks(self) -> tuple[int, ...]:
        """Entry masks in ascending order."""
        return _bit_positions(self._data) if self._bitmap else self._data

    @property
    def entries(self) -> tuple[VarSet, ...]:
        """Entries as VarSets in canonical order."""
        return tuple(self)

    def __len__(self) -> int:
        return self._data.bit_count() if self._bitmap else len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __iter__(self) -> Iterator[VarSet]:
        return map(VarSet, repeat(self.universe), self.masks())

    def _view(self):
        """The lookup view, built on first use: a bitmap's little-endian bytes or a tuple's mask set."""
        if self._lookup is None:
            size = ((1 << self.universe.size) + 7) // 8
            self._lookup = self._data.to_bytes(size, "little") if self._bitmap else set(self._data)
        return self._lookup

    def halves(self, k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Each high half ``h`` present (``m >> k``), ascending, with the ascending low halves of its entries.

        For ``k >= 3`` a bitmap's runs are read from their own bytes, empty ones
        skipped, and the ``2**14 >> k`` runs last used stay decoded, so equal
        runs give one tuple; a mask tuple, or runs under a byte, are cut by bisection.
        """
        if not self._bitmap or k < 3:
            masks, low, start = self.masks(), (1 << k) - 1, 0
            while start < len(masks):
                high = masks[start] >> k
                end = bisect_left(masks, (high + 1) << k, start)
                yield high, tuple(map(and_, masks[start:end], repeat(low)))
                start = end
            return
        view, width = memoryview(self._view()), 1 << (k - 3)
        decode = lru_cache((1 << 14) >> k)(_bit_positions)
        for high, i in enumerate(range(0, len(view), width)):
            if bits := int.from_bytes(view[i:i + width], "little"):
                yield high, decode(bits)

    def __contains__(self, v: VarSet) -> bool:
        if v.universe is not self.universe and v.universe != self.universe:
            return False  # never relabelled into this universe
        if self._bitmap:
            # Shifting the int would cost O(2**n) per test; a byte lookup is O(1).
            return bool(self._view()[v.mask >> 3] >> (v.mask & 7) & 1)
        # Bisection spares a one-off test on a large tuple the lookup set.
        i = bisect_left(self._data, v.mask)
        return i < len(self._data) and self._data[i] == v.mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dictionary):
            return NotImplemented
        return self.universe == other.universe and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.universe, self._data))

    def _combine(self, other: "Dictionary", bits, masks) -> "Dictionary":
        """``bits(this, other)`` of two bitmaps, or ``masks(the other's mask tuple, this tuple)``, sorted."""
        if self.universe != other.universe:
            raise UnknownVariable(
                f"cannot combine dictionaries over different universes "
                f"({self.universe.size} and {other.universe.size} covariates)"
            )
        if self._bitmap:
            return Dictionary._of(self.universe, bits(self._data, other._data))
        return Dictionary._of(self.universe, tuple(sorted(masks(other._data, self._data))))

    def union(self, other: "Dictionary") -> "Dictionary":
        return self._combine(other, or_, lambda theirs, mine: set(theirs).union(mine))

    def intersection(self, other: "Dictionary") -> "Dictionary":
        # Only the smaller family becomes a set: the other may hold 2^20 masks.
        return self._combine(
            other, and_, lambda a, b: set(a).intersection(b) if len(a) <= len(b) else set(b).intersection(a)
        )

    def difference(self, other: "Dictionary") -> "Dictionary":
        return self._combine(other, lambda a, b: a & ~b, lambda theirs, mine: filterfalse(set(theirs).__contains__, mine))

    def joined(self, mask: int) -> "Dictionary":
        """Every entry with the bits of ``mask`` set.

        On a bitmap, setting bit ``i`` moves the entries without it up by ``2**i``.
        """
        if not self._bitmap:
            return Dictionary._of(self.universe, tuple(sorted({m | mask for m in self._data})))
        planes = var_planes(self.universe.size)
        bits = self._data
        for i in _bit_positions(mask):
            bits = (bits & planes[i]) | ((bits & ~planes[i]) << (1 << i))
        return Dictionary._of(self.universe, bits)

    def unjoinable(self, a: int) -> "Dictionary":
        """The entries ``b`` for which ``a | b`` is not an entry.

        On a bitmap, bit ``b`` of the family projected onto the supersets
        of ``a`` is bit ``a | b`` of the family: one step per bit of ``a``.
        """
        if not self._bitmap:
            present = self._view()
            return Dictionary._of(self.universe, tuple(b for b in self._data if a | b not in present))
        planes = var_planes(self.universe.size)
        proj = self._data
        for i in _bit_positions(a):
            upper = proj & planes[i]
            proj = upper | (upper >> (1 << i))
        return Dictionary._of(self.universe, self._data & ~proj)

    def complements(self) -> "Dictionary":
        """The complement of every entry within the universe."""
        u = self.universe
        if not self._bitmap:  # complementing reverses mask order
            return Dictionary._of(u, tuple(u.full_mask ^ m for m in reversed(self._data)))
        # Mask m maps to 2**n - 1 - m: the 2**n-bit map read backwards.
        view = self._view()
        reverse = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
        flipped = int.from_bytes(view[::-1].translate(reverse), "little")
        return Dictionary._of(u, flipped >> (8 * len(view) - (1 << u.size)))

    def negated(self, max_entries: int) -> "Dictionary":
        """Every subset of the universe that is not an entry.

        The ``2**n`` subsets of the universe must not exceed ``max_entries``,
        else EnumerationTooLarge is raised before anything is listed.
        """
        n = self.universe.size
        if n > 63 or (1 << n) > max_entries:
            raise EnumerationTooLarge(f"2^{n} subsets exceed the enumeration cap of {max_entries}")
        if self._bitmap:
            return Dictionary._of(self.universe, ((1 << (1 << n)) - 1) & ~self._data)
        return Dictionary._of(self.universe, tuple(filterfalse(self._view().__contains__, range(1 << n))))

    def union_generators(self) -> "tuple[Dictionary, bool]":
        """The union-irreducible entries, and whether the family is union-closed.

        A union-closed family holds the empty union; its entries that are
        not the union of the entries strictly inside them (all smaller
        masks) are its unique minimal generators. A mask tuple joins each
        entry not yet reached onto the unions reached, ascending, and stops
        at the first union outside the family with every irreducible entry
        up to there. On a bitmap, for each variable ``j``, the up-closure
        ``up`` of the entries containing ``j`` marks the masks m whose
        union U(m) of entries inside m contains ``j``; the family is
        union-closed when its members are the fixed points U(m) = m.
        Shifting ``up`` one variable further marks the masks with an entry
        strictly inside them that contains ``j``, and an entry is
        irreducible when some variable of it is in no entry strictly
        inside it: subset zeta transforms, about 2n^2 operations on
        ``2**n``-bit ints.
        """
        u, data = self.universe, self._data
        if not self._bitmap:
            present, reached, generators = self._view(), {0}, []
            for m in data:
                if m not in reached:
                    generators.append(m)
                    joined = {r | m for r in reached}
                    if not joined <= present:
                        return Dictionary._of(u, tuple(generators)), False
                    reached |= joined
            return Dictionary._of(u, tuple(generators)), 0 in present
        planes = var_planes(u.size)
        steps = [(~p, 1 << i) for i, p in enumerate(planes)]
        fixed = (1 << (1 << u.size)) - 1
        exposed = 0
        for plane in planes:
            up = data & plane
            for outside, shift in steps:
                up |= (up & outside) << shift
            fixed &= ~(up ^ plane)
            below = 0
            for outside, shift in steps:
                below |= (up & outside) << shift
            exposed |= plane & ~below
        return Dictionary._of(u, data & exposed), fixed == data

    def within(self, v: VarSet) -> "Dictionary":
        """Entries that are subsets of ``v``."""
        outside = self.universe.full_mask & ~v.mask
        if self._bitmap:
            planes = var_planes(self.universe.size)
            hit = reduce(or_, (planes[i] for i in _bit_positions(outside)), 0)
            return Dictionary._of(self.universe, self._data & ~hit)
        return Dictionary._of(self.universe, tuple(m for m in self._data if not m & outside))

    def to_text(self) -> str:
        """One entry per line in canonical order, brace form per entry."""
        return "\n".join(v.to_text() for v in self)

    def to_json_obj(self) -> list[list[str]]:
        """Array-of-arrays of names, canonical order."""
        return [list(v) for v in self]

    @classmethod
    def from_text(cls, universe: Universe, text: str) -> "Dictionary":
        """Parse the line-per-entry brace form produced by :meth:`to_text`.

        Blank lines and ``#`` comment lines are skipped.

        Raises
        ------
        ParseError
            If a line is not a brace-delimited name list.
        UnknownVariable
            If an entry names a covariate outside ``universe``.
        """
        return cls.from_masks(universe, (v.mask for v in read_brace_lines(universe, text)))

    @classmethod
    def from_json_obj(cls, universe: Universe, obj) -> "Dictionary":
        """Parse what :meth:`to_json_obj` writes; anything but arrays of names is a ParseError."""
        return cls(universe, read_name_arrays(universe, obj, ParseError, "dictionary"))

    def __repr__(self) -> str:
        return f"Dictionary({len(self)} entries)"


def _pack(universe: Universe, masks: Iterable[int]):
    """Validated storage for a mask family: a bitmap or a sorted mask tuple."""
    ordered = sorted(set(masks))
    if ordered and (ordered[0] < 0 or ordered[-1] >> universe.size):
        bad = ordered[0] if ordered[0] < 0 else ordered[-1]
        raise UnknownVariable(
            f"mask {bad:#x} has bits outside the {universe.size}-covariate universe"
        )
    if universe.size > BITMAP_MAX_VARS:
        return tuple(ordered)
    buf = bytearray(((1 << universe.size) + 7) // 8)
    for m in ordered:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


@cache
def var_planes(n: int) -> tuple[int, ...]:
    """Per-variable bitmaps over the ``2**n`` masks of an ``n``-covariate universe.

    Plane ``i`` has bit ``m`` set exactly when mask ``m`` contains
    variable ``i``: runs of ``2**i`` zeros then ``2**i`` ones, repeated.
    Only bitmap universes (at most :data:`BITMAP_MAX_VARS` covariates)
    ask for planes, so the cache holds a few megabytes at most.
    """
    planes = []
    for i in range(n):
        plane, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < 1 << n:
            plane |= plane << width
            width <<= 1
        planes.append(plane)
    return tuple(planes)


def _bit_positions(bits: int) -> tuple[int, ...]:
    """Indices of the set bits of a non-negative int, ascending."""
    # Little-endian digits split at each 1 leave the runs of 0s before them.
    zero_runs = bin(bits)[:1:-1].split("1")[:-1]
    return tuple(accumulate((len(run) + 1 for run in zero_runs), initial=-1))[1:]


def parse_braced_names(universe: Universe, text: str, where: str = "") -> VarSet:
    """Parse one ``{A,B}`` group into a VarSet. ``{}`` is the empty set."""
    s = text.strip()
    ctx = f" at {where}" if where else ""
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError(f"expected a brace-delimited set{ctx}, got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return VarSet.empty(universe)
    names = [p.strip() for p in inner.split(",")]
    if any(not n for n in names):
        raise ParseError(f"empty name in set{ctx}: {text!r}")
    return VarSet.of_names(universe, names)


def read_brace_lines(universe: Universe, text: str) -> Iterator[VarSet]:
    """The sets of a line-per-set brace text, in order; blank lines and
    ``#`` comments are skipped, and a parse error names its line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield parse_braced_names(universe, line, f"line {lineno}")


def read_name_arrays(universe: Universe, obj, error: type[Exception], what: str) -> tuple[VarSet, ...]:
    """The sets of a JSON array of name arrays; any other shape raises ``error`` about ``what`` JSON."""
    if not isinstance(obj, list) or not all(
        isinstance(e, list) and all(isinstance(name, str) for name in e) for e in obj
    ):
        raise error(f"{what} JSON must be an array of name arrays")
    return tuple(VarSet.of_names(universe, e) for e in obj)


class ConstraintSet(Record):
    """The allowed selection counts of a unit rule."""

    __slots__ = ("counts",)
    counts: frozenset[int]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ParseError("constraint set must be non-empty")
        for c in self.counts:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ParseError(f"constraint counts must be non-negative integers, got {c!r}")

    @classmethod
    def of(cls, *counts: int) -> "ConstraintSet":
        return cls(frozenset(counts))

    @classmethod
    def closed_range(cls, lo: int, hi: int) -> "ConstraintSet":
        """Counts ``lo`` through ``hi`` inclusive."""
        if hi < lo:
            raise ParseError(f"empty count range {lo}..{hi}")
        counts = range(lo, hi + 1)
        cls.of(counts[0], counts[-1])  # checks the ends: every count between valid ends is valid
        record = cls.__new__(cls)
        cls._setters[0](record, frozenset(counts))
        return record

    @property
    def max(self) -> int:
        return max(self.counts)

    def __contains__(self, c: int) -> bool:
        return c in self.counts

    def to_text(self) -> str:
        # %d writes each count's digits straight into the text, with no str object per count.
        return "{" + ",".join(["%d"] * len(self.counts)) % tuple(sorted(self.counts)) + "}"

    def __repr__(self) -> str:
        return f"ConstraintSet({self.to_text()})"


def powerset(u: Universe, max_entries: int = DEFAULT_MAX_ENUM) -> Dictionary:
    """Every subset of the universe, as a Dictionary.

    Raises
    ------
    EnumerationTooLarge
        If ``2**u.size`` exceeds ``max_entries``.
    """
    return Dictionary(u).negated(max_entries)


def dictionary_support(d: Dictionary) -> VarSet:
    """Union of all entries; the empty VarSet for the empty Dictionary."""
    if not d._bitmap:
        return VarSet(d.universe, reduce(or_, d._data, 0))
    # Plane i holds the masks that contain variable i.
    planes = var_planes(d.universe.size)
    return VarSet(d.universe, sum(1 << i for i, plane in enumerate(planes) if d._data & plane))
