"""Sparse multivariate polynomial arithmetic over arbitrary-precision integers.

A :class:`Ring` fixes an ordered tuple of variable names.  A monomial is
packed into a single Python integer: variable ``i`` of the ring occupies a
16-bit field, with variable 0 in the most significant position.  Under this
encoding

* multiplying two monomials is one integer addition,
* monomial equality/hashing is integer equality/hashing, and
* comparing packed keys of equal total degree is exactly a lexicographic
  comparison in the declared variable order,

which makes the graded-lexicographic canonical order cheap to produce.  A
:class:`Polynomial` is an immutable wrapper around a dict mapping packed
monomial keys to nonzero integer coefficients; the zero polynomial is the
empty dict.  Exponents are capped at ``2**16 - 1`` per variable, far above
anything a jet-tower computation produces; ``mul``/``pow`` guard the cap via
the total degree of their operands.

The text form (``str``) lists terms in graded-lex descending order with
explicit ``+``/``-`` separators and ``^`` exponents, e.g.
``3*u1^2*h - 2*c1 + 5``.  It must not change: stdout's ``P(d)`` line prints
it, and the test suite pins it by digest (``FORM_DIGESTS``,
``POLYNOMIAL_DIGESTS``).  There is no parser for it.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping, Sequence, Union

from .errors import NonMonicRelationError, RingMismatchError

__all__ = [
    "NEG_INFINITY",
    "Ring",
    "Polynomial",
    "reduce_monic",
]

_EXP_BITS = 16
_EXP_MASK = (1 << _EXP_BITS) - 1
_DEGREE_CAP = 1 << _EXP_BITS

#: Degree of the zero polynomial.  Compares below every integer degree.
NEG_INFINITY = float("-inf")

#: A variable is identified by its index in the ring's name tuple.
VariableId = int


def _key_degree(key: int) -> int:
    """Total degree of a packed monomial key (sum of all 16-bit fields)."""
    total = 0
    while key:
        total += key & _EXP_MASK
        key >>= _EXP_BITS
    return total


def _mul_into(acc: dict, a: Mapping[int, int], b: Mapping[int, int]) -> None:
    """Accumulate the product of two raw term maps into ``acc``."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _add_into(acc: dict, a: Mapping[int, int]) -> None:
    """Accumulate ``a`` into ``acc`` (raw term maps)."""
    get = acc.get
    for k, c in a.items():
        acc[k] = get(k, 0) + c


class Ring:
    """An ordered table of variable names defining a polynomial ring over Z."""

    __slots__ = ("names", "arity", "_index", "_shifts", "_zero", "_one")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ValueError(f"invalid variable name {name!r}")
        self.names = names
        self.arity = len(names)
        self._index = {name: i for i, name in enumerate(names)}
        # variable 0 sits in the most significant field
        self._shifts = tuple(_EXP_BITS * (self.arity - 1 - i) for i in range(self.arity))
        self._zero = Polynomial(self, {})
        self._one = Polynomial(self, {0: 1})

    def var(self, name: str) -> VariableId:
        """Return the VariableId for ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no variable {name!r} in ring {self.names}") from None

    def shift(self, v: VariableId) -> int:
        self._check_var(v)
        return self._shifts[v]

    def _check_var(self, v: VariableId) -> None:
        if not 0 <= v < self.arity:
            raise IndexError(f"variable index {v} outside ring arity {self.arity}")

    def encode(self, exponents: Mapping[VariableId, int]) -> int:
        """Pack a sparse map ``{variable: exponent}`` into a monomial key."""
        key = 0
        for v, e in exponents.items():
            self._check_var(v)
            if e < 0 or e > _EXP_MASK:
                raise ValueError(f"exponent {e} out of range")
            key += e << self._shifts[v]
        return key

    def decode(self, key: int) -> dict[VariableId, int]:
        """Unpack a monomial key into a sparse map (only nonzero exponents)."""
        out = {}
        for v, sh in enumerate(self._shifts):
            e = (key >> sh) & _EXP_MASK
            if e:
                out[v] = e
        return out

    # ---- constructors -------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return self._zero

    @property
    def one(self) -> "Polynomial":
        return self._one

    def const(self, n: int) -> "Polynomial":
        return Polynomial(self, {0: n} if n else {})

    def variable(self, v: Union[VariableId, str]) -> "Polynomial":
        """The polynomial consisting of a single variable."""
        if isinstance(v, str):
            v = self.var(v)
        self._check_var(v)
        return Polynomial(self, {1 << self._shifts[v]: 1})

    def polynomial(self, terms: Mapping[int, int]) -> "Polynomial":
        """Build a polynomial from raw packed terms, dropping zero coefficients."""
        return Polynomial(self, {k: c for k, c in terms.items() if c})

    def __repr__(self) -> str:
        return f"Ring({', '.join(self.names)})"


class Polynomial:
    """Immutable sparse polynomial with integer coefficients.

    ``terms`` maps packed monomial keys to nonzero coefficients; instances
    must never be mutated after construction, which makes them safe to share
    across threads and processes.
    """

    __slots__ = ("ring", "_terms", "_degree")

    def __init__(self, ring: Ring, terms: dict[int, int]):
        self.ring = ring
        self._terms = terms
        self._degree: Union[int, float, None] = None

    # ---- basic protocol --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.ring is other.ring and self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    __hash__ = None  # mutable-dict-backed; identity hashing would be a trap

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring:
                raise RingMismatchError("operands belong to different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented

    # ---- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        get = acc.get
        for k, c in other._terms.items():
            acc[k] = get(k, 0) + c
        return self.ring.polynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return self.ring.zero
        self._check_capacity(self.total_degree + other.total_degree)
        acc: dict[int, int] = {}
        _mul_into(acc, self._terms, other._terms)
        return self.ring.polynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        """Repeated products: ``exponent - 1`` multiplications by ``self``; ``p**0 == 1``.

        The degree cap is checked once up front for a nonzero base, so an
        overflowing power fails before any product is formed.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        if exponent == 0:
            return self.ring.one
        if self._terms:
            self._check_capacity(self.total_degree * exponent)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    @staticmethod
    def _check_capacity(degree_bound) -> None:
        if degree_bound >= _DEGREE_CAP:
            raise OverflowError(
                f"total degree {degree_bound} exceeds the packed-exponent capacity"
            )

    # ---- structure queries ---------------------------------------------------

    @property
    def total_degree(self) -> Union[int, float]:
        """Largest plain total degree among the terms; NEG_INFINITY for 0."""
        if self._degree is None:
            if not self._terms:
                self._degree = NEG_INFINITY
            else:
                self._degree = max(map(_key_degree, self._terms))
        return self._degree

    def degree_in(self, v: VariableId) -> Union[int, float]:
        """Largest exponent of ``v``; NEG_INFINITY for the zero polynomial."""
        if not self._terms:
            return NEG_INFINITY
        sh = self.ring.shift(v)
        return max((k >> sh) & _EXP_MASK for k in self._terms)

    def coeff_of(self, v: VariableId, e: int) -> "Polynomial":
        """The polynomial multiplying ``v**e``, with ``v`` removed."""
        sh = self.ring.shift(v)
        strip = e << sh
        out = {
            k - strip: c
            for k, c in self._terms.items()
            if (k >> sh) & _EXP_MASK == e
        }
        return Polynomial(self.ring, out)

    def weighted_degree(self, weights: Sequence[int]) -> Union[int, float]:
        """Largest weighted degree under one weight per ring variable."""
        if not self._terms:
            return NEG_INFINITY
        return max(self._weight_of_key(k, weights) for k in self._terms)

    def is_homogeneous(self, weights: Sequence[int]) -> bool:
        """True iff every term has the same weighted degree (0 counts as yes)."""
        degrees = {self._weight_of_key(k, weights) for k in self._terms}
        return len(degrees) <= 1

    def _weight_of_key(self, key: int, weights: Sequence[int]) -> int:
        shifts = self.ring._shifts
        return sum(
            w * ((key >> sh) & _EXP_MASK)
            for w, sh in zip(weights, shifts)
            if (key >> sh) & _EXP_MASK
        )

    def variables_used(self) -> set[VariableId]:
        """The set of variables with a nonzero exponent somewhere."""
        mask = 0
        for k in self._terms:
            mask |= k
        return {v for v, sh in enumerate(self.ring._shifts) if (mask >> sh) & _EXP_MASK}

    def terms(self) -> Iterator[tuple[dict[VariableId, int], int]]:
        """Iterate ``(sparse exponent map, coefficient)`` in canonical order."""
        for k in self._sorted_keys():
            yield self.ring.decode(k), self._terms[k]

    # ---- substitution and evaluation -----------------------------------------

    def substitute(self, v: VariableId, q: "Polynomial") -> "Polynomial":
        """Replace every occurrence of ``v`` by ``q``, fully expanded."""
        q = self._coerce(q)
        strata = self._strata(v)
        top = max(strata)
        if top == 0:
            return self
        acc: dict[int, int] = {}
        qpow = self.ring.one
        for e in range(top + 1):
            if e:
                qpow = qpow * q
            stratum = strata.get(e)
            if stratum:
                if qpow._terms == {0: 1}:
                    _add_into(acc, stratum)
                else:
                    _mul_into(acc, stratum, qpow._terms)
        return self.ring.polynomial(acc)

    def _strata(self, v: VariableId) -> dict[int, dict[int, int]]:
        """Split into raw term maps by the exponent of ``v`` (``v`` removed)."""
        sh = self.ring.shift(v)
        strata: dict[int, dict[int, int]] = {}
        for k, c in self._terms.items():
            e = (k >> sh) & _EXP_MASK
            strata.setdefault(e, {})[k - (e << sh)] = c
        if not strata:
            strata[0] = {}
        return strata

    # ---- serialization ---------------------------------------------------------

    def _sorted_keys(self) -> list[int]:
        return sorted(self._terms, key=lambda k: (_key_degree(k), k), reverse=True)

    def _monomial_text(self, key: int) -> str:
        parts = []
        for v, e in self.ring.decode(key).items():
            name = self.ring.names[v]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for i, k in enumerate(self._sorted_keys()):
            c = self._terms[k]
            mono = self._monomial_text(k)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        text = str(self)
        if len(text) > 60:
            text = f"{text[:57]}..."
        return f"Polynomial({text})"


def reduce_monic(p: Polynomial, v: VariableId, rel: Polynomial) -> Polynomial:
    """Remainder of ``p`` modulo a relation monic in ``v``.

    ``rel`` must have leading coefficient 1 in ``v`` and degree >= 1; since the
    remaining coefficients of ``rel`` are its lower ``v``-strata they are free
    of ``v`` by construction.  The result satisfies
    ``degree_in(result, v) < degree_in(rel, v)`` and is congruent to ``p``
    modulo ``rel``.
    """
    if rel.ring is not p.ring:
        raise RingMismatchError("relation belongs to a different ring")
    r = rel.degree_in(v)
    if r is NEG_INFINITY or r < 1:
        raise NonMonicRelationError(f"relation has no positive degree in {p.ring.names[v]}")
    lead = rel.coeff_of(v, r)
    if lead._terms != {0: 1}:
        raise NonMonicRelationError(
            f"relation is not monic in {p.ring.names[v]} (leading coefficient {lead})"
        )
    top = p.degree_in(v)
    if top is NEG_INFINITY or top < r:
        return p
    tails = [rel.coeff_of(v, r - l)._terms for l in range(1, r + 1)]
    strata = p._strata(v)
    for e in range(int(top), r - 1, -1):
        stratum = strata.pop(e, None)
        if not stratum:
            continue
        # v^e = -sum_l tail_l * v^(e-l) modulo rel
        negated = {k: -c for k, c in stratum.items()}
        for l, tail in enumerate(tails, start=1):
            if not tail:
                continue
            target = strata.setdefault(e - l, {})
            _mul_into(target, negated, tail)
    sh = p.ring.shift(v)
    acc: dict[int, int] = {}
    for e, stratum in strata.items():
        lift = e << sh
        for k, c in stratum.items():
            key = k + lift
            acc[key] = acc.get(key, 0) + c
    return p.ring.polynomial(acc)
