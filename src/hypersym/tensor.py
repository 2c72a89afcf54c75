"""Sparse cubical hypermatrices with exact entries, and their structural maps.

A cubical hypermatrix of order ``n`` with ``r`` indices is a map
``(j_1, ..., j_r) -> a_{j_1 ... j_r}`` on ``[n]^r``.  Entries are kept as
exact complex rationals, so symmetry checks, diagonal similarities and
polynomial work are exact.  A general tensor is stored sparsely by index
tuple; a symmetric one may be stored by orbit, one value per sorted index
multiset, which is how hypergraph adjacency tensors are built.  A tensor
document is read in one pass, and its values are interned per document:
each distinct raw value is parsed once, and the entries that carry it share
one immutable ExactComplex, so predicates and float conversions run once
per distinct value.  Values degrade to floating point only inside iterative
numerics, which all read one float kernel cached on the tensor.

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
from itertools import chain, permutations
from math import factorial
from types import MappingProxyType
from typing import Iterable, Sequence, Union

import numpy as np

Scalar = Union[int, float, complex, Fraction, str, "ExactComplex"]


class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction | str = 0, im: int | Fraction | str = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ExactComplex is immutable")

    @classmethod
    def coerce(cls, value: Scalar) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        # int, float, Fraction, "p/q" string
        return cls(Fraction(value))

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: Scalar) -> "ExactComplex":
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re + o.re, self.im + o.im)

    def __sub__(self, other: Scalar) -> "ExactComplex":
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalar) -> "ExactComplex":
        return ExactComplex.coerce(other) - self

    def __mul__(self, other: Scalar) -> "ExactComplex":
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    def __truediv__(self, other: Scalar) -> "ExactComplex":
        o = ExactComplex.coerce(other)
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex((self.re * o.re + self.im * o.im) / norm,
                            (self.im * o.re - self.re * o.im) / norm)

    def __rtruediv__(self, other: Scalar) -> "ExactComplex":
        return ExactComplex.coerce(other) / self

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
        try:
            o = ExactComplex.coerce(other)
        except (TypeError, ValueError):
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
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"ExactComplex({str(self.re)!r})"
        return f"ExactComplex({str(self.re)!r}, {str(self.im)!r})"


_ZERO = ExactComplex(0)


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


# The exponent of a decimal string such as "2.5e-3", as Fraction reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _check_exponent(part: str, obj) -> None:
    """Reject a decimal exponent past the int/str digit limit (0: no limit).

    Fraction builds 10**exponent, which for "1e999999999" runs for hours.
    The limit is the one Python applies to integer strings.
    """
    # Python before 3.10.7 has no such limit: use the default of later versions
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
    m = _EXPONENT.search(part)
    if m is None or not limit:
        return
    digits = m.group(1).lstrip("+-").replace("_", "").lstrip("0")
    if len(digits) > len(str(limit)) or int(digits or 0) > limit:
        raise ValueError(f"tensor value {obj!r} has a decimal exponent beyond "
                         f"{limit} in magnitude")


def parse_value(obj) -> ExactComplex:
    """Parse an entry value: a number, a "p/q" string, or a [re, im] pair."""
    parts = obj if isinstance(obj, (list, tuple)) else (obj, 0)
    if len(parts) != 2:
        raise ValueError(f"complex value must be a [re, im] pair, got {obj!r}")
    for part in parts:
        # a bool is an int, but not a tensor value
        if isinstance(part, bool) or not isinstance(part, (int, float, str)):
            raise ValueError(f"cannot parse tensor value {obj!r}")
        if isinstance(part, str):
            _check_exponent(part, obj)
    try:
        return ExactComplex(*parts)
    except OverflowError:  # an infinite float
        raise ValueError(f"tensor value {obj!r} is not finite") from None
    except ZeroDivisionError:  # "1/0"
        raise ValueError(f"tensor value {obj!r} has a zero denominator") from None


# JSON scalar types a value or a component of a [re, im] value may have.
_VALUE_TYPES = frozenset((int, float, str))


def _value_key(obj):
    """Hashable stand-in for a raw JSON value, tagged by type; None if there is none.

    Keys are equal only for values of one type that compare equal, so 1,
    1.0, True, "1" and [1, 0] never share a key.
    """
    t = type(obj)
    if t in _VALUE_TYPES:
        return t, obj
    if t is list and len(obj) == 2:
        re_part, im_part = obj
        if type(re_part) in _VALUE_TYPES and type(im_part) in _VALUE_TYPES:
            return (type(re_part), re_part), (type(im_part), im_part)
    return None


Index = tuple[int, ...]


def _check_shape(r, n) -> None:
    # type(...) is int, not isinstance: a bool is an int but not a size
    if type(r) is not int or r < 2:
        raise ValueError(f"index count r must be an integer >= 2, got {r}")
    if type(n) is not int or n < 1:
        raise ValueError(f"order n must be an integer >= 1, got {n}")


def _accumulate(items: Iterable[tuple[Sequence[int], Scalar]], r: int, n: int,
                by_orbit: bool) -> dict[Index, ExactComplex]:
    """Validated, summed, zero-free and sorted ``key -> value`` storage.

    Keys are index tuples, or their sorted forms when ``by_orbit``.
    """
    acc: dict[Index, ExactComplex] = {}
    for idx, value in items:
        key = tuple(idx)
        if len(key) != r:
            raise ValueError(f"index tuple {key} does not have length r={r}")
        for j in key:
            if type(j) is not int or not 1 <= j <= n:
                raise ValueError(f"index {j!r} out of range 1..{n} in {key}")
        if by_orbit:
            key = tuple(sorted(key))
        v = ExactComplex.coerce(value)
        if key in acc:
            acc[key] = acc[key] + v
        else:
            acc[key] = v
    return {k: acc[k] for k in sorted(acc) if acc[k]}


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


class CubicalTensor:
    """Order-``n`` hypermatrix with ``r`` indices, stored sparsely.

    ``entries`` maps 1-based index tuples of length ``r`` to nonzero
    ExactComplex values.  Duplicate tuples given at construction are summed;
    exact zeros are pruned.  Instances are immutable.

    The constructor stores the given tuples as they are.  ``from_orbits``
    builds a symmetric tensor from one value per index multiset and stores
    only those; its ``entries`` is a read-only view that expands the orbits
    when first iterated.  Both forms compare and hash alike.  Derived data
    (symmetry, support patterns, digraph, the float kernel of F) is computed
    on first use and kept in ``_cache``, which equality and hashing ignore.
    """

    __slots__ = ("r", "n", "_entries", "_orbits", "_cache")

    def __init__(self, r: int, n: int,
                 entries: Mapping[Sequence[int], Scalar] | Iterable[tuple[Sequence[int], Scalar]] = ()):
        _check_shape(r, n)
        items = entries.items() if isinstance(entries, Mapping) else entries
        self._set(r, n, _accumulate(items, r, n, by_orbit=False), None)

    @staticmethod
    def _stored(r: int, n: int, entries, orbits) -> "CubicalTensor":
        """A tensor on storage that is already checked, summed, zero-free and sorted."""
        # a plain tensor even when called on a subclass: a Hypergraph holds 1s only
        out = CubicalTensor.__new__(CubicalTensor)
        out._set(r, n, entries, orbits)
        return out

    @classmethod
    def from_orbits(cls, r: int, n: int,
                    orbits: Mapping[Sequence[int], Scalar] | Iterable[tuple[Sequence[int], Scalar]]
                    ) -> "CubicalTensor":
        """Symmetric tensor with value v at every ordering of each index multiset.

        ``orbits`` maps index multisets, in any order, to values; multisets
        given more than once are summed and exact zeros pruned.
        """
        _check_shape(r, n)
        items = orbits.items() if isinstance(orbits, Mapping) else orbits
        return cls._stored(r, n, None, _accumulate(items, r, n, by_orbit=True))

    def _set(self, r: int, n: int, entries, orbits) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_orbits", orbits)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self) -> dict[Index, ExactComplex]:
        return self._entries if self._orbits is None else self._orbits

    def _rebuild(self, n: int, items) -> "CubicalTensor":
        """A tensor with this one's r and storage form."""
        if self._orbits is None:
            return CubicalTensor(self.r, n, items)
        return CubicalTensor.from_orbits(self.r, n, items)

    @property
    def entries(self) -> Mapping[Index, ExactComplex]:
        if self._orbits is None:
            return MappingProxyType(self._entries)
        return _OrbitEntries(self)

    def entry(self, idx: Sequence[int]) -> ExactComplex:
        if self._orbits is None:
            return self._entries.get(tuple(idx), _ZERO)
        return self._orbits.get(tuple(sorted(idx)), _ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CubicalTensor):
            return NotImplemented
        if (self.r, self.n) != (other.r, other.n):
            return False
        if (self._orbits is None) == (other._orbits is None):
            return self._store() == other._store()
        return self._symmetric_orbits() == other._symmetric_orbits()

    def __hash__(self) -> int:
        orbits = self._symmetric_orbits()
        body = self._entries if orbits is None else orbits
        return hash((self.r, self.n, tuple(body.items())))

    def __neg__(self) -> "CubicalTensor":
        return self._rebuild(self.n, [(idx, -v) for idx, v in self._store().items()])

    def __repr__(self) -> str:
        return f"CubicalTensor(r={self.r}, n={self.n}, nnz={len(self.entries)})"

    # -- convenience constructors ----------------------------------------
    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[Scalar]]) -> "CubicalTensor":
        """Build the r=2 tensor from a dense square matrix (list of rows)."""
        n = len(rows)
        items = []
        for i, row in enumerate(rows, start=1):
            if len(row) != n:
                raise ValueError("matrix rows must all have length n")
            for j, v in enumerate(row, start=1):
                items.append(((i, j), v))
        return CubicalTensor(2, n, items)

    @_once
    def is_real(self) -> bool:
        return all(v.is_real for v in self._distinct_values()[0])

    @_once
    def is_nonnegative(self) -> bool:
        return all(v.is_real and v.re >= 0 for v in self._distinct_values()[0])

    def diagonal(self) -> list[ExactComplex]:
        """The r-fold diagonal [a_{11...1}, ..., a_{nn...n}]."""
        return [self.entry((k,) * self.r) for k in range(1, self.n + 1)]

    def principal_submatrix(self, vertices: Sequence[int]) -> "CubicalTensor":
        """Restrict to index tuples inside ``vertices``, reindexed to 1..len."""
        vs = sorted(vertices)
        if not vs:
            raise ValueError("vertex set must be nonempty")
        if len(set(vs)) != len(vs):
            raise ValueError("vertex set must not contain duplicates")
        for v in vs:
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
        if len(vs) == self.n:
            return self
        pos = {v: i for i, v in enumerate(vs, start=1)}
        keep = set(vs)
        return self._rebuild(len(vs), [(tuple(pos[j] for j in idx), v)
                                       for idx, v in self._store().items()
                                       if keep.issuperset(idx)])

    # -- cached derived data ---------------------------------------------
    @_once
    def _symmetric_orbits(self) -> dict[Index, ExactComplex] | None:
        """The orbit map (sorted multiset -> value) if symmetric, else None."""
        if self._orbits is not None:
            return self._orbits
        groups: dict[Index, list[ExactComplex]] = {}
        for idx, v in self._entries.items():
            groups.setdefault(tuple(sorted(idx)), []).append(v)
        orbits = {}
        for key in sorted(groups):
            vals = groups[key]
            first = vals[0]
            if len(vals) != _multiset_permutation_count(key):
                return None
            if any(v != first for v in vals[1:]):
                return None
            orbits[key] = first
        return orbits

    @_once
    def _patterns(self) -> tuple[Index, ...]:
        """Distinct support multisets, sorted."""
        if self._orbits is not None:
            return tuple(self._orbits)
        return tuple(sorted({tuple(sorted(idx)) for idx in self._entries}))

    @_once
    def _incidence(self) -> np.ndarray:
        """Pattern-incidence array: [i, j] counts vertex j+1 in pattern i.

        The dtype is the narrowest signed integer that holds r.
        """
        patterns, r = self._patterns(), self.r
        flat = chain.from_iterable(patterns)
        keys = np.fromiter(flat, dtype=np.intp, count=len(patterns) * r).reshape(-1, r) - 1
        out = np.zeros((len(keys), self.n), dtype=np.min_scalar_type(-r - 1))
        rows = np.arange(len(keys))
        for col in keys.T:  # one position at a time: no row repeats in an update
            out[rows, col] += 1
        return out

    @_once
    def _nnz(self) -> int:
        return sum(_multiset_permutation_count(key) for key in self._store())

    @_once
    def _expanded(self) -> dict[Index, ExactComplex]:
        """Every index tuple of an orbit-stored tensor, in sorted order."""
        full = {idx: v for key, v in self._orbits.items()
                for idx in set(permutations(key))}
        return {idx: full[idx] for idx in sorted(full)}

    @_once
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Index structure of F: ``(heads, tails, source, count)``, 0-based.

        Row t adds value[source[t]] * count[t] * prod(x[tails[:, t]]) to
        F(x)[heads[t]], where value lists the stored values in order.  Tuple
        storage has one row per entry, and source and count are None.  Orbit
        storage has one row per distinct head k of each orbit, and count is
        the number of distinct orderings of the orbit with one k removed.
        """
        r = self.r
        keys = np.array(list(self._store()), dtype=np.intp).reshape(-1, r) - 1
        if self._orbits is None:
            return keys[:, 0].copy(), np.ascontiguousarray(keys[:, 1:].T), None, None
        same = keys[:, 1:] == keys[:, :-1]
        # 1-based place of each position in its run of equal indices: the
        # product over a row is the product of the multiplicities' factorials
        place = np.ones(keys.shape)
        for pos in range(1, r):
            place[:, pos] = np.where(same[:, pos - 1], place[:, pos - 1] + 1, 1)
        orderings = factorial(r) / place.prod(axis=1)
        mult = (keys[:, :, None] == keys[:, None, :]).sum(axis=2)
        first = np.ones(keys.shape, dtype=bool)
        first[:, 1:] = ~same
        source, pos = np.nonzero(first)
        others = np.array([[c for c in range(r) if c != p] for p in range(r)],
                          dtype=np.intp)
        tails = keys[source[:, None], others[pos]].T
        # orderings of the tail: r!/prod(m_i!) with m_k lowered by one
        count = orderings[source] * mult[source, pos] / r
        return keys[source, pos], np.ascontiguousarray(tails), source, count

    @_once
    def _distinct_values(self) -> tuple[list[ExactComplex], np.ndarray]:
        """The stored value objects, each once, and each entry's place among them.

        Entries read from equal JSON values share one object, so whatever is
        tested or converted per object is done once per distinct value.
        """
        values = self._store().values()
        distinct = {id(v): v for v in values}
        place = {key: i for i, key in enumerate(distinct)}
        where = np.fromiter(map(place.__getitem__, map(id, values)), dtype=np.intp,
                            count=len(values))
        return list(distinct.values()), where

    @_once
    def _kernel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float COO kernel of F: ``(heads, tails, weights)``."""
        heads, tails, source, count = self._rows()
        distinct, where = self._distinct_values()
        if self.is_real():
            table = np.array([float(v.re) for v in distinct], dtype=np.float64)
        else:
            table = np.array([complex(v) for v in distinct], dtype=np.complex128)
        vals = table[where]
        if source is not None:
            vals = vals[source] * count
        return heads, tails, vals

    @_once
    def _arcs(self) -> np.ndarray:
        """Arc matrix of the associated digraph: [k, j] is an arc k+1 -> j+1."""
        heads, tails, _source, _count = self._rows()
        arcs = np.zeros((self.n, self.n), dtype=bool)
        arcs[heads, tails] = True
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
        """Tensor of a JSON document, read in one pass over its entry records.

        Each distinct raw value is parsed once per document, and the entries
        that carry it share one ExactComplex.  Of several faults in one
        document the one reported is the first malformed record or value,
        else a bad r or n, else the first bad index tuple.
        """
        try:
            r, n, raw = data["r"], data["n"], data["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"tensor JSON must have keys r, n, entries: {exc}") from exc
        if not isinstance(raw, list):
            raise ValueError("tensor JSON 'entries' must be a list")
        try:
            _check_shape(r, n)
            fault = None
        except ValueError as exc:
            fault = str(exc)
        parsed: dict = {}  # _value_key of a raw value -> its value
        acc: dict[Index, ExactComplex] = {}
        for rec in raw:
            if (not isinstance(rec, dict) or not isinstance(rec.get("i"), list)
                    or "v" not in rec):
                raise ValueError(f"tensor entry must be {{'i': [...], 'v': ...}}, got {rec!r}")
            obj = rec["v"]
            key = _value_key(obj)
            value = parsed.get(key)  # never stored under None
            if value is None:
                # every zero is _ZERO, so pruning below is an identity test
                value = parse_value(obj) or _ZERO
                if key is not None:
                    parsed[key] = value
            if fault is not None:  # only records and values are left to check
                continue
            idx = tuple(rec["i"])
            if len(idx) != r:
                fault = f"index tuple {idx} does not have length r={r}"
                continue
            for j in idx:
                if type(j) is not int or not 1 <= j <= n:
                    fault = f"index {j!r} out of range 1..{n} in {idx}"
                    break
            else:
                old = acc.get(idx)
                acc[idx] = value if old is None else (old + value) or _ZERO
        if fault is not None:
            raise ValueError(fault)
        return cls._stored(r, n, {idx: acc[idx] for idx in sorted(acc)
                                  if acc[idx] is not _ZERO}, None)


class _OrbitEntries(Mapping):
    """Read-only full-tuple view of an orbit-stored tensor.

    Length, lookup and membership are answered from the orbits; iteration
    walks the expansion, which is built on first use and kept.
    """

    __slots__ = ("_tensor",)

    def __init__(self, tensor: CubicalTensor):
        self._tensor = tensor

    def __getitem__(self, idx) -> ExactComplex:
        try:
            return self._tensor._orbits[tuple(sorted(idx))]
        except TypeError:
            raise KeyError(idx) from None

    def __len__(self) -> int:
        return self._tensor._nnz()

    def __iter__(self):
        return iter(self._tensor._expanded())

    def keys(self):
        return self._tensor._expanded().keys()

    def items(self):
        return self._tensor._expanded().items()

    def values(self):
        return self._tensor._expanded().values()


# ---------------------------------------------------------------------------
# structural maps
# ---------------------------------------------------------------------------

def _multiset_permutation_count(key: Index) -> int:
    count = factorial(len(key))
    mult: dict[int, int] = {}
    for j in key:
        mult[j] = mult.get(j, 0) + 1
    for m in mult.values():
        count //= factorial(m)
    return count


def is_symmetric(a: CubicalTensor) -> bool:
    """True iff every permutation of every index tuple carries the same value."""
    return a._symmetric_orbits() is not None


def apply_array(a: CubicalTensor, x: np.ndarray) -> np.ndarray:
    """F(x) for a numpy vector, through the tensor's cached float kernel."""
    heads, tails, weights = a._kernel()
    terms = weights * x[tails[0]]
    for row in tails[1:]:
        terms *= x[row]
    if np.iscomplexobj(terms):
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
    """True iff the associated digraph is strongly connected."""
    arcs = a._arcs()
    return bool((_depths(arcs, 0) >= 0).all() and (_depths(arcs.T, 0) >= 0).all())


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
    the output.  All z_k must be nonzero; exact values stay exact.
    """
    if len(z) != a.n:
        raise ValueError(f"scale vector length {len(z)} != order n={a.n}")
    zs = [ExactComplex.coerce(v) for v in z]
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
