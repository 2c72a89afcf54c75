"""Sparse cubical hypermatrices with exact entries, and their structural maps.

A cubical hypermatrix of order ``n`` with ``r`` indices is a map
``(j_1, ..., j_r) -> a_{j_1 ... j_r}`` on ``[n]^r``.  Entries are kept as
exact complex rationals, so symmetry checks, diagonal similarities and
polynomial work are exact.  Every tensor is stored sparsely as arrays: its
index rows as one lexicographically sorted int64 array, its distinct
values, and each row's place among them.  The rows are index tuples, or
the sorted index multisets of a symmetric tensor stored by orbit, as a
hypergraph's adjacency tensor is.  Support patterns, symmetry, equality,
each orbit's exact number of orderings, the digraph's arc matrix and the
float kernel are computed from those arrays; one dict of the rows is built
only when ``entries`` or ``entry`` asks for it.  Each of these structures
has one builder.  The float kernel and the arc matrix read the stored rows
by one rule: each head column of a row (column 0 of a tuple, every column
of an orbit) gives one kernel row, and arcs to the other columns.  A
number from outside becomes exact by one rule, ``parse_value``, in
ExactComplex arithmetic, comparison with numbers, ``diagonal_similarity``
and every constructor, which parses each distinct raw value once and
stores one immutable ExactComplex per distinct value, so predicates and
float conversions run once per distinct value.  Values degrade to floating
point only inside iterative numerics, which all read one float kernel
cached on the tensor.

Eigenpairs follow the homogeneous eigenvalue equation

    lam * x_k^(r-1) = sum_{j_2..j_r} a_{k j_2 ... j_r} x_{j_2} * ... * x_{j_r}
"""
from __future__ import annotations

import functools
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import factorial, prod
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Sequence, Union

import numpy as np

Scalar = Union[int, float, complex, Fraction, str, "ExactComplex"]


# The exponent of a decimal string such as "2.5e-3", as Fraction reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _check_exponent(part) -> None:
    """Reject a str with a decimal exponent past the int/str digit limit (0: no limit).

    Fraction builds 10**exponent, which for "1e999999999" runs for hours.
    The limit is the one Python applies to integer strings.
    """
    m = isinstance(part, str) and _EXPONENT.search(part)
    if not m:
        return
    # Python before 3.10.7 has no such limit: use the default of later versions
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
    digits = m.group(1).lstrip("+-").replace("_", "").lstrip("0")
    if limit and (len(digits) > len(str(limit)) or int(digits or 0) > limit):
        raise ValueError(f"tensor value {part!r} has a decimal exponent beyond "
                         f"{limit} in magnitude")


class ExactComplex:
    """Complex number with exact rational parts; ``parse_value`` reads each operand."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction | str = 0, im: int | Fraction | str = 0):
        _check_exponent(re)
        _check_exponent(im)
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ExactComplex is immutable")

    # -- arithmetic: an operand that parse_value refuses raises its ValueError
    def __add__(self, other: Scalar) -> "ExactComplex":
        o = parse_value(other)
        return ExactComplex(self.re + o.re, self.im + o.im)

    def __sub__(self, other: Scalar) -> "ExactComplex":
        o = parse_value(other)
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalar) -> "ExactComplex":
        return parse_value(other) - self

    def __mul__(self, other: Scalar) -> "ExactComplex":
        o = parse_value(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    def __truediv__(self, other: Scalar) -> "ExactComplex":
        o = parse_value(other)
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex((self.re * o.re + self.im * o.im) / norm,
                            (self.im * o.re - self.re * o.im) / norm)

    def __rtruediv__(self, other: Scalar) -> "ExactComplex":
        return parse_value(other) / self

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __pow__(self, exponent: int) -> "ExactComplex":
        if not isinstance(exponent, int):
            raise TypeError("ExactComplex only supports integer powers")
        if exponent < 0:
            return ExactComplex(1) / self.__pow__(-exponent)
        out = ExactComplex(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- predicates -------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (str, list, tuple)):  # it hashes unlike its number: unequal
            return NotImplemented
        try:
            o = parse_value(other)
        except ValueError:  # a value the rule refuses is unequal to every number
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        # Equal values hash equal: a real value like its real part, any other
        # like the Python complex, which CPython hashes as
        # hash(re) + hash_info.imag * hash(im) in wrapping machine words.
        if self.im == 0:
            return hash(self.re)
        width = sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % (1 << width)
        if h >= 1 << (width - 1):
            h -= 1 << width
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(to_float(self.re), to_float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"ExactComplex({str(self.re)!r})"
        return f"ExactComplex({str(self.re)!r}, {str(self.im)!r})"


_ZERO = ExactComplex(0)


def to_float(q: Fraction) -> float:
    """float(q); a ValueError that names q when q is past the float range."""
    try:
        return float(q)
    except OverflowError:
        pass
    try:
        name = str(q)
    except ValueError:  # past the int/str digit limit
        name = f"of about 2**{q.numerator.bit_length() - q.denominator.bit_length()}"
    raise ValueError(f"the value {name} is past the float range")


def _encode_component(f: Fraction) -> int | float | str:
    if f.denominator == 1:
        return int(f)
    if Fraction(float(f)) == f:
        return float(f)
    return str(f)


def encode_value(v: ExactComplex) -> str | list:
    """JSON form of an entry value: "p/q" when real, else a [re, im] pair."""
    if v.im == 0:
        return str(v.re)
    return [_encode_component(v.re), _encode_component(v.im)]


def parse_value(obj) -> ExactComplex:
    """Parse an entry value: a number, a "p/q" string, or a [re, im] pair.

    The one rule of constructors, ExactComplex operators, == with a number,
    diagonal_similarity and UniPoly coefficients; also takes ExactComplex, Fraction, complex.
    """
    if isinstance(obj, ExactComplex):
        return obj
    parts = ((obj.real, obj.imag) if isinstance(obj, complex)
             else obj if isinstance(obj, (list, tuple)) else (obj, 0))
    if len(parts) != 2:
        raise ValueError(f"complex value must be a [re, im] pair, got {obj!r}")
    for part in parts:
        # a bool is an int, but not a tensor value
        if isinstance(part, bool) or not isinstance(part, (int, float, str, Fraction)):
            raise ValueError(f"cannot parse tensor value {obj!r}")
    try:
        return ExactComplex(*parts)
    except OverflowError:  # an infinite float
        raise ValueError(f"tensor value {obj!r} is not finite") from None
    except ZeroDivisionError:  # "1/0"
        raise ValueError(f"tensor value {obj!r} has a zero denominator") from None


# JSON scalar types a value or a component of a [re, im] value may have.
_VALUE_TYPES = frozenset((int, float, str))


def _value_key(obj):
    """Hashable stand-in for a raw JSON value, tagged by type.

    Keys are equal only for values of one type that compare equal, so 1,
    1.0, True, "1" and [1, 0] never share a key.  Any other value is keyed
    by its id, and so shares a key with itself only.
    """
    t = type(obj)
    if t in _VALUE_TYPES:
        return t, obj
    if t is list and len(obj) == 2:
        re_part, im_part = obj
        if type(re_part) in _VALUE_TYPES and type(im_part) in _VALUE_TYPES:
            return (type(re_part), re_part), (type(im_part), im_part)
    return id(obj)


Index = tuple[int, ...]

# Tuple storage is an (m, r) int64 array of indices in 1..n, so neither r
# nor n may pass the int64 range.
_INT64_MAX = 2**63 - 1


def _check_shape(r, n) -> None:
    # type(...) is int, not isinstance: a bool is an int but not a size
    if type(r) is not int or r < 2:
        raise ValueError(f"index count r must be an integer >= 2, got {r}")
    if type(n) is not int or n < 1:
        raise ValueError(f"order n must be an integer >= 1, got {n}")
    for name, size in (("index count r", r), ("order n", n)):
        if size > _INT64_MAX:
            raise ValueError(f"{name} must be at most 2**63 - 1 (the int64 limit), "
                             f"got a {size.bit_length()}-bit integer")


def _check_indices(indices: Iterable[Sequence[int]], r: int, n: int) -> None:
    """Raise on the first index tuple of a length other than r or with an index not in 1..n."""
    for idx in indices:
        key = tuple(idx)
        if len(key) != r:
            raise ValueError(f"index tuple {key} does not have length r={r}")
        for j in key:
            if type(j) is not int or not 1 <= j <= n:
                raise ValueError(f"index {j!r} out of range 1..{n} in {key}")


def _index_array(r: int, n: int, indices: list, fault=_check_indices) -> np.ndarray:
    """The (m, r) int64 array of m index sequences in 1..n, or ``fault`` names the first bad one."""
    keys = None
    try:
        flat = list(chain.from_iterable(indices))
        # type(j) is int, not isinstance: a bool is not an index
        if set(map(len, indices)) <= {r} and set(map(type, flat)) <= {int}:
            keys = np.fromiter(flat, dtype=np.int64, count=len(flat)).reshape(len(indices), r)
    except (TypeError, OverflowError):  # a sequence without a length; an index past int64
        pass
    if keys is None or (len(keys) and (keys.min() < 1 or keys.max() > n)):
        fault(indices, r, n)
    return keys


def _collect(r: int, n: int, entries, by_orbit: bool
             ) -> tuple[np.ndarray, np.ndarray, list[ExactComplex]]:
    """Array storage of (index, value) items, rows sorted if ``by_orbit``; first fault first."""
    _check_shape(r, n)
    items = entries.items() if isinstance(entries, Mapping) else entries
    indices: list[Index] = []
    objs: list = []
    for item in items:
        try:
            idx, value = item
            indices.append(tuple(idx))
        except (TypeError, ValueError):
            _check_indices(indices, r, n)  # a bad tuple up to here is the first fault
            raise
        objs.append(value)
    try:
        values, where = _parse_interned(objs)
    except ValueError:
        for t, obj in enumerate(objs):  # a bad tuple up to the first bad value comes first
            try:
                parse_value(obj)
            except ValueError:
                _check_indices(indices[:t + 1], r, n)
                break
        raise
    keys = _index_array(r, n, indices)
    return _array_storage(np.sort(keys, axis=1) if by_orbit else keys, n, where, values)


def _unique_rows(rows: np.ndarray, n: int, return_inverse: bool = True
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Distinct rows of indices in 1..n, sorted: ``(unique, first, inverse)``.

    Unique row i is ``rows[first[i]]``, its first occurrence, and row t is
    unique row ``inverse[t]`` (if asked for).  Each row compares as one
    int64, its digits in base n + 1, when (n + 1)**r fits in one; else as
    one void of its big-endian int64 bytes, whose byte order is the
    lexicographic order of nonnegative rows.
    """
    m, r = rows.shape
    narrow = r * n.bit_length() <= 63  # (n + 1)**r fits in an int64
    code = rows @ ((n + 1) ** np.arange(r - 1, -1, -1, dtype=np.int64)) if narrow else rows
    # sorted and distinct already, as the documents this package writes are;
    # fewer than two rows are, however wide
    if m < 2 or narrow and (code[1:] > code[:-1]).all():
        first = np.arange(m)
        return rows, first, first if return_inverse else None
    if not narrow:
        code = np.ascontiguousarray(rows, dtype=">i8").view(f"V{8 * r}").reshape(m)
    # the stable sort behind return_index keeps each row's first occurrence
    _, first, *inverse = np.unique(code, return_index=True, return_inverse=return_inverse)
    return rows[first], first, inverse[0].reshape(-1) if inverse else None


def _array_storage(keys: np.ndarray, n: int, where,
                   values: list[ExactComplex]) -> tuple[np.ndarray, np.ndarray, list[ExactComplex]]:
    """Sorted, summed and zero-free array storage ``(keys, where, distinct)``.

    Row t of the int64 array ``keys`` is an index row in 1..n (a tuple, or
    a sorted multiset for orbit storage) with the value
    ``values[where[t]]``.  The storage holds the distinct rows in
    lexicographic order, as ``_unique_rows`` finds them, and each row's
    place in ``distinct``.  Equal rows sum into one new value, in their
    given order; exact zeros are pruned.  Then ``distinct`` keeps one
    object per value that a row carries: equal places are equal values.
    """
    given = np.asarray(where, dtype=np.intp)
    keys, first, inverse = _unique_rows(keys, n)
    where, values = given[first], list(values)
    if len(first) < len(given):  # some rows repeat
        repeated = np.bincount(inverse) > 1
        totals = dict.fromkeys(np.flatnonzero(repeated).tolist())  # in row order
        member = repeated[inverse]
        for u, w in zip(inverse[member].tolist(), given[member].tolist()):
            totals[u] = values[w] if totals[u] is None else totals[u] + values[w]
        for u, total in totals.items():
            where[u] = len(values)
            values.append(total)
    if not all(values):
        keep = np.fromiter(map(bool, values), dtype=bool, count=len(values))[where]
        keys, where = keys[keep], where[keep]
    kept = np.flatnonzero(np.bincount(where, minlength=len(values)))
    place: dict[ExactComplex, int] = {}  # each value's first object, merged by value
    remap = np.zeros(len(values), dtype=np.intp)
    remap[kept] = [place.setdefault(values[i], len(place)) for i in kept.tolist()]
    return keys, remap[where], list(place)


def _once(method):
    """Compute a no-argument method once per object and keep it in ``_cache``."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        cache = self._cache
        if name not in cache:
            cache[name] = method(self)
        return cache[name]

    return cached


_RECORD_INDEX, _RECORD_VALUE = itemgetter("i"), itemgetter("v")


def _record_fault(raw: list) -> None:
    """Raise the first malformed record or unparsable value of a tensor document."""
    bad = next((t for t, rec in enumerate(raw) if not isinstance(rec, dict)
                or not isinstance(rec.get("i"), list) or "v" not in rec), len(raw))
    _parse_interned(list(map(_RECORD_VALUE, raw[:bad])))  # its first bad value, if any
    if bad < len(raw):
        raise ValueError(f"tensor entry must be {{'i': [...], 'v': ...}}, got {raw[bad]!r}")


def _parse_interned(objs: list) -> tuple[list[ExactComplex], np.ndarray]:
    """Each distinct raw value parsed once, in order of first use, and each object's place."""
    types = set(map(type, objs))
    if types <= _VALUE_TYPES and not {int, float} <= types:
        keys = objs  # within int and str, or float and str, equal means one value
    else:
        keys = list(map(_value_key, objs))
    # a dict keeps a key where it was first inserted, so this is first-use
    # order; each key keeps its last object, which parses as its first does
    reps = dict(zip(keys, objs))
    place = dict(zip(reps, range(len(reps))))
    values = list(map(parse_value, reps.values()))
    return values, np.fromiter(map(place.__getitem__, keys), dtype=np.intp, count=len(keys))


# Most column pairs that one scatter of `_arcs` gathers: its two transient
# int64 arrays stay at 512 KB each, where one m x r(r-1) scatter on the
# 191,268 8-edges of gen_prop5_graph(2, 12, 12, 8) took 86 MB each.  The
# largest benchmark graph has 30,054 pairs, so it still takes one scatter.
_ARC_CHUNK = 1 << 16

_PAST_FLOAT = ("F has a coefficient past the float range: a tail of {} "
               "indices with more orderings than a float holds")


class CubicalTensor:
    """Order-``n`` hypermatrix with ``r`` indices, stored sparsely.

    ``entries`` maps 1-based index tuples of length ``r`` to nonzero
    ExactComplex values.  Duplicate tuples given at construction are summed;
    exact zeros are pruned.  Instances are immutable.

    ``_arrays`` is a lexicographically sorted (m, r) int64 index array, the
    distinct values, and each row's place among them; its rows are the
    given tuples.  ``from_orbits`` builds a symmetric tensor from one value
    per index multiset and stores the sorted multisets, with ``_by_orbit``
    set; its read-only ``entries`` expands them when first iterated.  Both
    forms compare and hash alike.  Every constructor parses values by one
    rule, ``parse_value``, as documents are, and dedupes and sorts the rows
    through ``_array_storage``, which keeps one object per distinct value.
    Derived data (symmetry, support patterns, ordering counts, the digraph's
    arc matrix, the float kernel of F) is computed on first use and kept in
    ``_cache``, which equality and hashing ignore.
    """

    __slots__ = ("r", "n", "_arrays", "_by_orbit", "_cache")

    def __init__(self, r: int, n: int,
                 entries: Mapping[Sequence[int], Scalar] | Iterable[tuple[Sequence[int], Scalar]] = ()):
        self._set(r, n, _collect(r, n, entries, False), False)

    @staticmethod
    def _stored(r: int, n: int, arrays, by_orbit: bool) -> "CubicalTensor":
        """A tensor on array storage that is already checked, summed, zero-free and sorted."""
        # a plain tensor even when called on a subclass: a Hypergraph holds 1s only
        out = CubicalTensor.__new__(CubicalTensor)
        out._set(r, n, arrays, by_orbit)
        return out

    @classmethod
    def from_orbits(cls, r: int, n: int,
                    orbits: Mapping[Sequence[int], Scalar] | Iterable[tuple[Sequence[int], Scalar]]
                    ) -> "CubicalTensor":
        """Symmetric tensor with value v at every ordering of each index multiset.

        ``orbits`` maps index multisets, in any order, to values; multisets
        given more than once are summed and exact zeros pruned.
        """
        return cls._stored(r, n, _collect(r, n, orbits, True), True)

    def _set(self, r: int, n: int, arrays, by_orbit: bool) -> None:
        arrays[0].flags.writeable = arrays[1].flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "_by_orbit", by_orbit)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def entries(self) -> Mapping[Index, ExactComplex]:
        if self._by_orbit:
            return _OrbitEntries(self)
        return MappingProxyType(self._row_dict())

    def entry(self, idx: Sequence[int]) -> ExactComplex:
        return self._row_dict().get(tuple(sorted(idx) if self._by_orbit else idx), _ZERO)

    def _canonical(self) -> tuple:
        """Shape, symmetry, and the int64 rows and values of the orbit storage or ``_arrays``."""
        storage = self._orbit_storage()
        keys, where, distinct = self._arrays if storage is None else storage
        return (self.r, self.n, storage is not None, keys.tobytes(),
                tuple(map(distinct.__getitem__, where.tolist())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CubicalTensor):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __neg__(self) -> "CubicalTensor":
        return self._scaled(-1)

    def _scaled(self, factor: Scalar) -> "CubicalTensor":
        """The tensor times a nonzero exact scalar: same rows, values still nonzero and unequal."""
        keys, where, distinct = self._arrays
        return self._stored(self.r, self.n, (keys, where, [v * factor for v in distinct]),
                            self._by_orbit)

    def __repr__(self) -> str:
        nnz = self._orbit_tuples() if self._by_orbit else len(self._arrays[0])
        return f"CubicalTensor(r={self.r}, n={self.n}, nnz={nnz})"

    # -- convenience constructors ----------------------------------------
    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[Scalar]]) -> "CubicalTensor":
        """Build the r=2 tensor from a dense square matrix (list of rows)."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix rows must all have length n")
        return CubicalTensor(2, n, [((i, j), v) for i, row in enumerate(rows, start=1)
                                    for j, v in enumerate(row, start=1)])

    @_once
    def is_real(self) -> bool:
        return all(v.is_real for v in self._arrays[2])

    @_once
    def is_nonnegative(self) -> bool:
        return all(v.is_real and v.re >= 0 for v in self._arrays[2])

    def diagonal(self) -> list[ExactComplex]:
        """The r-fold diagonal [a_{11...1}, ..., a_{nn...n}]."""
        keys, where, distinct = self._arrays
        out = [_ZERO] * self.n
        on_diagonal = np.flatnonzero((keys == keys[:, :1]).all(axis=1))
        for k, w in zip(keys[on_diagonal, 0].tolist(), where[on_diagonal].tolist()):
            out[k - 1] = distinct[w]
        return out

    def principal_submatrix(self, vertices: Sequence[int]) -> "CubicalTensor":
        """Restrict to index tuples inside ``vertices``, reindexed to 1..len."""
        vs = sorted(vertices)
        if not vs:
            raise ValueError("vertex set must be nonempty")
        if len(set(vs)) != len(vs):
            raise ValueError("vertex set must not contain duplicates")
        for v in vs:
            # type(v) is int, not isinstance: a bool is not a vertex
            if type(v) is not int or not 1 <= v <= self.n:
                raise ValueError(f"vertex {v!r} out of range 1..{self.n}")
        if len(vs) == self.n:
            return self
        keys, where, distinct = self._arrays
        chosen = np.array(vs)
        # renumbering keeps the order of indices, so sorted multisets stay sorted
        place = np.searchsorted(chosen, keys)
        inside = (chosen[np.minimum(place, len(vs) - 1)] == keys).all(axis=1)
        storage = _array_storage(place[inside] + 1, len(vs), where[inside], distinct)
        return self._stored(self.r, len(vs), storage, self._by_orbit)

    # -- cached derived data ---------------------------------------------
    @_once
    def _row_dict(self) -> dict[Index, ExactComplex]:
        """The storage as a ``row -> value`` dict in sorted order: tuples, or orbit multisets."""
        keys, where, distinct = self._arrays
        return dict(zip(map(tuple, keys.tolist()), map(distinct.__getitem__, where.tolist())))

    @_once
    def _multisets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Support multisets of tuple storage: ``_unique_rows`` of the sorted rows."""
        return _unique_rows(np.sort(self._arrays[0], axis=1), self.n)

    def _pattern_rows(self) -> np.ndarray:
        """Distinct support multisets as sorted index rows, in lexicographic order."""
        return self._arrays[0] if self._by_orbit else self._multisets()[0]

    @_once
    def _orbit_storage(self) -> tuple[np.ndarray, np.ndarray, list[ExactComplex]] | None:
        """Orbit storage ``(multisets, where, distinct)`` if the tensor is symmetric, else None."""
        keys, where, distinct = self._arrays
        if self._by_orbit or not len(keys):  # the zero tensor, however large r: no r-wide work
            return self._arrays
        patterns, first, inverse = self._multisets()
        # one stored object per distinct value: equal places are equal values.
        # No pattern has more distinct orderings stored than it has: all are stored iff they sum up
        if (where != where[first][inverse]).any() or self._orbit_tuples() != len(keys):
            return None
        return patterns, where[first], distinct

    @_once
    def _patterns(self) -> tuple[Index, ...]:
        """Distinct support multisets, sorted."""
        return tuple(map(tuple, self._pattern_rows().tolist()))

    def _pattern_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Runs of equal indices in the pattern rows: ``(starts, lengths)``.

        ``starts`` holds each run's first position in the row-major flattened
        rows, and ``lengths`` its length, the index's multiplicity in its row.
        No loop runs over the columns, however wide the rows.
        """
        rows = self._pattern_rows()
        flat = rows.ravel()
        new = np.empty(flat.size + 1, dtype=bool)
        new[1:-1] = flat[1:] != flat[:-1]
        new[::rows.shape[1]] = True  # each row starts a run, and the end closes the last one
        bounds = new.nonzero()[0]
        return bounds[:-1], bounds[1:] - bounds[:-1]

    @_once
    def _incidence(self) -> np.ndarray:
        """Pattern-incidence array: [i, j] counts vertex j+1 in pattern i.

        The dtype is the narrowest signed integer that holds r.
        """
        rows = self._pattern_rows()
        m, r = rows.shape
        out = np.zeros((m, self.n), dtype=np.min_scalar_type(-r - 1))
        # a sorted row holds each vertex in one run: one write per run
        starts, lengths = self._pattern_runs()
        out.reshape(-1)[starts // r * self.n + rows.ravel()[starts] - 1] = lengths
        return out

    @_once
    def _orbit_counts(self) -> tuple[np.ndarray, list[int]]:
        """Each pattern row's class, and each class's exact ordering count r!/prod(m_i!).

        Rows with runs of equal indices of equal lengths at equal places form one class.
        """
        rows = self._pattern_rows()
        starts, lengths = self._pattern_runs()
        # each position's 1-based place in its run: a row's product is prod(m_i!)
        places = (np.arange(rows.size) - np.repeat(starts, lengths) + 1).reshape(rows.shape)
        classes, _first, cls = _unique_rows(places, self.r)
        return cls, [factorial(self.r) // prod(row) for row in classes.tolist()]

    @_once
    def _orbit_tuples(self) -> int:
        """The number of index tuples in the patterns' orbits: an orbit-stored tensor's nnz."""
        cls, counts = self._orbit_counts()
        return sum(map(mul, counts, np.bincount(cls, minlength=len(counts)).tolist()))

    @_once
    def _expanded(self) -> dict[Index, ExactComplex]:
        """Every index tuple of an orbit-stored tensor, in sorted order."""
        full = {idx: v for key, v in self._row_dict().items() for idx in _orderings(key)}
        return {idx: full[idx] for idx in sorted(full)}

    def _tuples(self) -> "CubicalTensor":
        """The same tensor on tuple storage: itself, or the expansion of its orbits."""
        # not cached: the tensor itself in its own _cache would be a cycle
        if not self._by_orbit:
            return self
        return CubicalTensor(self.r, self.n, self._expanded().items())

    @_once
    def _kernel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float COO kernel of F: ``(heads, tails, weights)``, 0-based.

        Row t adds weights[t] * prod(x[tails[:, t]]) to F(x)[heads[t]].
        A stored row has h head columns: column 0 of a tuple (h = 1), or
        every column of an orbit (h = r).  Kernel row (t, k) has head
        keys[t, k] and the stored row without column k as its tail.  A
        tuple's row weighs its value, and each row of an orbit its value
        times count / r, count = r!/prod(m_i!) its orderings: the m_k rows
        with head k add up to its tail's orderings, count * m_k / r.  With no
        index repeated, as in every `Hypergraph`, that is (r - 1)!, and no
        ordering class is searched.
        """
        keys, where, distinct = self._arrays
        keys = (keys - 1).astype(np.intp, copy=False)
        table = np.array(list(map(complex, distinct)), dtype=np.complex128)
        vals = (table.real if self.is_real() else table)[where]
        m, r = keys.shape
        if not m:  # no rows: no r-long work, however large r
            return keys[:, 0].copy(), np.ascontiguousarray(keys[:, 1:].T), vals
        h = r if self._by_orbit else 1
        if self._by_orbit:
            try:
                if (keys[:, 1:] != keys[:, :-1]).all():  # sorted rows: no index repeats
                    vals = vals * float(factorial(r - 1))
                else:
                    cls, counts = self._orbit_counts()
                    vals = vals * np.array([count / r for count in counts])[cls]
            except OverflowError:  # the weight is past the float range
                raise ValueError(_PAST_FLOAT.format(r - 1)) from None
        # the tail of row (t, k) is keys[t] without column k, one tail
        # column at a time, so that no (m, h, r - 1) array is built
        tails = np.empty((r - 1, m * h), dtype=np.intp)
        for c in range(r - 1):
            by_head = tails[c].reshape(m, h)
            by_head[:, :c + 1] = keys[:, c + 1:c + 2]
            by_head[:, c + 1:] = keys[:, c:c + 1]
        return keys[:, :h].ravel(), tails, np.repeat(vals, h)

    @_once
    def _arcs(self) -> np.ndarray:
        """Arc matrix of the associated digraph: [k, j] is an arc k+1 -> j+1.

        Read from the stored rows by the kernel's head-column rule: a row
        has an arc from each of its h head columns to each other column, so
        a repeated index of an orbit gives its self-arc.  The arcs are
        written in chunks of rows, each of at most `_ARC_CHUNK` column pairs.
        """
        keys = self._arrays[0]
        n, r = self.n, self.r
        arcs = np.zeros((n, n), dtype=bool)
        if not len(keys):  # no rows, no pairs: no r x r work, however large r
            return arcs
        # each row has an arc from its column a[i] to its column b[i]
        a, b = np.nonzero(~np.eye(r if self._by_orbit else 1, r, dtype=bool))
        flat = arcs.reshape(-1)
        step = max(1, _ARC_CHUNK // len(a))
        for lo in range(0, len(keys), step):
            chunk = keys[lo:lo + step]
            codes = chunk[:, a]
            codes *= n
            codes += chunk[:, b]
            codes -= n + 1  # 1-based indices to the 0-based code k * n + j
            flat[codes] = True
        return arcs

    # -- JSON -------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "entries": [{"i": list(idx), "v": encode_value(v)}
                        for idx, v in self.entries.items()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CubicalTensor":
        """Tensor of a JSON document, stored as arrays by the constructor's builder.

        Values follow the constructor's rule.  Of several faults in one
        document the one reported is the first malformed record or value,
        else a bad r or n, else the first bad index tuple.
        """
        try:
            r, n, raw = data["r"], data["n"], data["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"tensor JSON must have keys r, n, entries: {exc}") from exc
        if not isinstance(raw, list):
            raise ValueError("tensor JSON 'entries' must be a list")
        if not all(map(isinstance, raw, repeat(dict))):
            _record_fault(raw)
        try:
            indices, objs = list(map(_RECORD_INDEX, raw)), list(map(_RECORD_VALUE, raw))
        except KeyError:
            _record_fault(raw)
        if not all(map(isinstance, indices, repeat(list))):
            _record_fault(raw)
        values, where = _parse_interned(objs)
        _check_shape(r, n)
        return cls._stored(r, n, _array_storage(_index_array(r, n, indices), n, where, values),
                           False)


def _orderings(row: Index) -> Iterable[Index]:
    """The distinct orderings of a sorted index row, in lexicographic order.

    Each step is the next permutation in lexicographic order, so an orbit
    with r!/prod(m_i!) orderings costs that many steps, not r!.
    """
    a = list(row)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


class _OrbitEntries(Mapping):
    """Read-only full-tuple view of an orbit-stored tensor.

    Length is counted from the orbits' exact ordering counts, lookup and
    membership read the row dict, and iteration walks the expansion, each
    built once.
    """

    __slots__ = ("_tensor",)

    def __init__(self, tensor: CubicalTensor):
        self._tensor = tensor

    def __getitem__(self, idx) -> ExactComplex:
        try:
            return self._tensor._row_dict()[tuple(sorted(idx))]
        except TypeError:
            raise KeyError(idx) from None

    def __len__(self) -> int:
        return self._tensor._orbit_tuples()

    def __bool__(self) -> bool:  # without the length, which may pass sys.maxsize
        return bool(len(self._tensor._arrays[0]))

    def __iter__(self):
        return iter(self._tensor._expanded())

    def items(self):
        return self._tensor._expanded().items()

    def values(self):
        return self._tensor._expanded().values()


# ---------------------------------------------------------------------------
# structural maps
# ---------------------------------------------------------------------------

def is_symmetric(a: CubicalTensor) -> bool:
    """True iff every permutation of every index tuple carries the same value."""
    return a._orbit_storage() is not None


def apply_array(a: CubicalTensor, x: np.ndarray) -> np.ndarray:
    """F(x) for a numpy vector, through the tensor's cached float kernel."""
    heads, tails, weights = a._kernel()
    if not len(heads):  # no terms, however many tail factors each would have
        return np.zeros(a.n)
    terms = weights * x[tails[0]]
    for c in range(1, len(tails)):  # cheaper than iterating the rows of tails[1:]
        terms *= x[tails[c]]
    if terms.dtype.kind == "c":
        # bincount accepts real weights only
        return (np.bincount(heads, weights=terms.real, minlength=a.n)
                + 1j * np.bincount(heads, weights=terms.imag, minlength=a.n))
    return np.bincount(heads, weights=terms, minlength=a.n)


def apply(a: CubicalTensor, x: Sequence[complex]) -> list[complex]:
    """The map F(x)_k = sum a_{k j_2 ... j_r} x_{j_2} ... x_{j_r} in floats."""
    if len(x) != a.n:
        raise ValueError(f"vector length {len(x)} != order n={a.n}")
    xs = np.array([complex(v) for v in x])
    return apply_array(a, xs).tolist()


def eigen_residual(a: CubicalTensor, lam: complex, x: Sequence[complex]) -> float:
    """Scaled worst-equation defect of (lam, x) under the eigenvalue equation.

    Returns max_k |lam x_k^(r-1) - F(x)_k| / max(1, |lam| ||x||_inf^(r-1),
    ||x||_inf^(r-1)).
    """
    xs = np.array([complex(v) for v in x])
    if len(xs) != a.n:
        raise ValueError(f"vector length {len(xs)} != order n={a.n}")
    if not xs.any():
        raise ValueError("eigenvector must be nonzero")
    lam = complex(lam)
    p = a.r - 1
    num = float(np.abs(lam * xs ** p - apply_array(a, xs)).max())
    xinf = float(np.abs(xs).max()) ** p
    den = max(1.0, abs(lam) * xinf, xinf)
    return num / den


def polynomial_form(a: CubicalTensor, x: Sequence[float]) -> float:
    """The homogeneous form sum a_{j_1...j_r} x_{j_1} ... x_{j_r} (real input)."""
    if not a.is_real():
        raise ValueError("polynomial form is defined for real tensors only")
    if len(x) != a.n:
        raise ValueError(f"vector length {len(x)} != order n={a.n}")
    xs = np.array([float(v) for v in x])
    # sum over j_1 of x_{j_1} F(x)_{j_1}
    return float(xs @ apply_array(a, xs))


def digraph(a: CubicalTensor) -> dict[int, set[int]]:
    """Successor map of the associated digraph on [n].

    There is an arc k -> j iff some stored entry a_{k j_2 ... j_r} != 0 has
    j among its trailing indices.
    """
    return {k: set((np.flatnonzero(row) + 1).tolist())
            for k, row in enumerate(a._arcs(), start=1)}


def _depths(arcs: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first depth of each vertex from ``start`` along ``arcs`` (-1: unreached)."""
    depth = np.full(len(arcs), -1)
    frontier = np.zeros(len(arcs), dtype=bool)
    frontier[start] = True
    level = 0
    while frontier.any():
        depth[frontier] = level
        frontier = arcs[frontier].any(axis=0) & (depth < 0)
        level += 1
    return depth


def is_weakly_irreducible(a: CubicalTensor) -> bool:
    """True iff the associated digraph is strongly connected.

    That is, vertex 1 reaches every vertex and every vertex reaches it.  An
    orbit-stored tensor has an arc each way between every two indices of a
    row, so its arc matrix is symmetric and one breadth-first search decides.
    """
    arcs = a._arcs()
    reached = (_depths(arcs, 0) >= 0).all()
    return bool(reached and (a._by_orbit or (_depths(arcs.T, 0) >= 0).all()))


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected pieces of a symmetric tensor.

    ``parts`` lists (vertex tuple, principal submatrix) pairs whose vertex
    sets partition [n]; ``isolated`` lists the single-vertex parts with no
    diagonal loop entry.
    """
    parts: tuple[tuple[tuple[int, ...], CubicalTensor], ...]
    isolated: tuple[int, ...]


def components(a: CubicalTensor) -> ComponentDecomposition:
    """Decompose a symmetric tensor into its connected components."""
    if not is_symmetric(a):
        raise ValueError("components are defined for symmetric tensors only")
    # symmetry makes every arc two-way, so reachability is connectivity
    arcs = a._arcs()
    unseen = np.ones(a.n, dtype=bool)
    parts = []
    isolated = []
    while unseen.any():
        reached = _depths(arcs, int(unseen.argmax())) >= 0
        unseen &= ~reached
        comp = tuple((np.flatnonzero(reached) + 1).tolist())
        parts.append((comp, a.principal_submatrix(comp)))
        # a single vertex has an arc to itself only through its diagonal entry
        if len(comp) == 1 and not arcs[comp[0] - 1, comp[0] - 1]:
            isolated.append(comp[0])
    return ComponentDecomposition(parts=tuple(parts), isolated=tuple(isolated))


def diagonal_similarity(a: CubicalTensor, z: Sequence[Scalar]) -> CubicalTensor:
    """Spectrum-preserving rescale b_{j_1..j_r} = z_{j_1}^{-r} a z_{j_1}...z_{j_r}.

    If (lam, x) is an eigenpair of the input, (lam, x / z) is an eigenpair of
    the output.  Each z_k is read by ``parse_value`` and must be nonzero;
    exact values stay exact.
    """
    if len(z) != a.n:
        raise ValueError(f"scale vector length {len(z)} != order n={a.n}")
    zs = list(map(parse_value, z))
    if any(not v for v in zs):
        raise ValueError("diagonal similarity requires all z_k nonzero")
    inv_r = [v ** (-a.r) for v in zs]
    items = []
    for idx, val in a.entries.items():
        b = inv_r[idx[0] - 1] * val
        for j in idx:
            b = b * zs[j - 1]
        items.append((idx, b))
    return CubicalTensor(a.r, a.n, items)


def is_bipartite_2matrix(a: CubicalTensor) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-block partition (U, W) of an r=2 matrix with zero diagonal blocks.

    Returns None when no such partition exists (including any nonzero
    diagonal entry).  Isolated vertices land in U.
    """
    if a.r != 2:
        raise ValueError("bipartition test is defined for r=2 matrices only")
    # undirected arcs; a diagonal entry makes a vertex its own neighbour,
    # which no 2-coloring allows
    arcs = a._arcs() | a._arcs().T
    side = np.full(a.n, -1)
    while (side < 0).any():
        depth = _depths(arcs, int((side < 0).argmax()))
        side = np.where(depth >= 0, depth % 2, side)
    if arcs[side[:, None] == side[None, :]].any():
        return None
    u_side = tuple((np.flatnonzero(side == 0) + 1).tolist())
    w_side = tuple((np.flatnonzero(side == 1) + 1).tolist())
    return u_side, w_side
