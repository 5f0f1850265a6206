"""Composition through a finite group: characters, invariance, and bounds.

Inner functions may take values in a finite Abelian group G (non-Abelian
groups are supported through user-supplied character tables with class
data).  The key structural condition is orthogonality of distinct character
matrices, which for Abelian G is equivalent to a group-invariance property of
the row/column pair multisets of the map, and which for G = Z_2^t degenerates
to per-block strong balance.

Element indexing: tuples (a_1, ..., a_k) with 0 <= a_j < m_j are packed in
mixed radix with the first modulus least significant, so for Z_2^n the
element index coincides with the point mask used by the Boolean modules.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .approx import _FEAS_TOL, _first_fit, chebyshev
from .bounds import BoundReport
from .errors import ResourceLimitError, check_bytes, quantity
from .matrices import balance_check, block_mask
from .simplex import check_tableau

MAX_GROUP_ORDER = 2 ** 14
_SUM_TOL = 1e-8  # zero tests scale with multiset size
_NO_GROUP = "invariance needs an Abelian group, not only an order"


class AbelianGroupSpec:
    """Direct product of cyclic groups Z_m1 x ... x Z_mk."""

    __slots__ = ("moduli", "order")

    def __init__(self, moduli):
        given = tuple(moduli)
        mods = tuple(int(m) for m in given)
        if not mods or any(m < 2 for m in mods) or mods != given:
            raise ValueError("every modulus must be an integer >= 2")
        order = math.prod(mods)
        if order > MAX_GROUP_ORDER:
            raise ValueError(f"group order {order} exceeds cap {MAX_GROUP_ORDER}")
        self.moduli = mods
        self.order = order

    def __eq__(self, other):
        return isinstance(other, AbelianGroupSpec) and self.moduli == other.moduli

    def __repr__(self):
        return f"AbelianGroupSpec({'x'.join(f'Z{m}' for m in self.moduli)})"


def _integer_array(values, what: str) -> np.ndarray:
    """values as an int64 array; ValueError unless every entry is an integer
    (an empty list, which numpy reads as float, has no entry to refuse)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size:
        raise ValueError(f"{what} entries must be integers")
    return arr.astype(np.int64)


class CharacterTable:
    """Irreducible character values, one row per character.

    Rows must satisfy the orthogonality relation
    sum_g chi_i(g) conj(chi_j(g)) = |G| [i == j] and the entry bound
    |chi_i(g)| <= degrees[i]; class_of must name h classes, and every
    character must be constant on each.  For Abelian groups there are |G|
    rows, all of degree one, and classes are singletons.  Every table
    records its trivial row (trivial_index) and conjugate[a], the row of
    conj(chi_a); a table without either is refused.  group is the
    AbelianGroupSpec whose characters characters_abelian computed as this
    table, and None for every other table: rows read from a file or given
    to the constructor need not be the characters of a map's group.
    The table is float64 when none of its values has an imaginary part
    (every Z_2^t table, every product of real tables, a real table read
    from a file), else complex128.
    """

    __slots__ = ("h", "order", "table", "class_of", "degrees", "conjugate",
                 "_trivial", "group")

    def __init__(self, h: int, order: int, table, class_of, degrees):
        arr = np.asarray(table, dtype=complex)
        if arr.shape != (h, order):
            raise ValueError(f"character table must be {h}x{order}")
        if not np.isfinite(arr).all():
            raise ValueError("character values must be finite")
        cls = _integer_array(class_of, "class_of")
        if cls.shape != (order,) or cls.min() < 0 or cls.max() >= h:
            raise ValueError("class_of must map each element to a class index")
        if np.bincount(cls, minlength=h).min() == 0:
            raise ValueError("class_of must use all h class indices")
        degs = _integer_array(degrees, "degrees")
        if degs.shape != (h,) or (degs < 1).any():
            raise ValueError("degrees must be positive, one per character")
        degs = tuple(degs.tolist())
        gram = arr @ arr.conj().T
        gram.flat[::h + 1] -= order
        if np.abs(gram).max() > 1e-9 * max(order, 1):
            raise ValueError("character rows are not orthogonal")
        over = np.flatnonzero(np.abs(arr).max(axis=1) > np.array(degs) + 1e-12)
        if over.size:
            raise ValueError(f"character {over[0]} exceeds its degree bound")
        if np.abs(arr - arr[:, _class_leads(cls, h)]).max() > 1e-9:
            raise ValueError("characters must be constant on each class")
        # rows have norm sqrt|G|, so by Cauchy-Schwarz only the all-ones row
        # sums to |G|, and only conj(chi_a) has sum_g chi_a(g) chi_b(g) = |G|
        trivial = int(np.abs(arr.sum(axis=1) - order).argmin())
        if np.abs(arr[trivial] - 1.0).max() > 1e-9:
            raise ValueError("table has no trivial character row")
        pair = arr @ arr.T
        conj = pair.real.argmax(axis=1)
        off = np.flatnonzero(np.abs(pair[np.arange(h), conj] - order)
                             > 1e-9 * order)
        if off.size:
            raise ValueError(f"table is not closed under conjugation: no row "
                             f"is conj(chi_{off[0]})")
        self._record(arr.copy(), cls, degs, trivial, conj)

    def _record(self, table: np.ndarray, class_of, degrees, trivial: int,
                conjugate: np.ndarray) -> None:
        # a real row is its own conjugate, so a table with any other
        # conjugation is complex without a scan of its values
        if table.dtype.kind == "c" and \
                (conjugate == np.arange(len(conjugate))).all() and \
                not table.imag.any():
            table = table.real.copy()
        table.setflags(write=False)
        conjugate.setflags(write=False)
        self.h, self.order = table.shape
        self.table, self.class_of = table, class_of
        self.degrees = tuple(degrees)
        self._trivial, self.conjugate = trivial, conjugate
        self.group = None

    @classmethod
    def product(cls, tables) -> "CharacterTable":
        """Table of the direct product of the groups of checked tables, the
        first group least significant in element and character indices.

        Rows are Kronecker products of factor rows, orthogonal and within
        their degrees because the factors' rows are: (A (x) B)(A (x) B)^H =
        AA^H (x) BB^H, so the constructor's checks are skipped.  Classes are
        the mixed radix of the factors' classes, and degrees multiply; so
        are the trivial row and each row's conjugate.  The factors multiply
        in place into one table of ones, most significant first, so the
        product of real tables is built real and the fold holds no table but
        the result.  A table past MAX_TABLE_BYTES is refused before the
        fold allocates it.
        """
        tables = list(tables)[::-1]
        order = math.prod(t.order for t in tables)
        h = math.prod(t.h for t in tables)
        dtype = np.result_type(float, *(t.table.dtype for t in tables))
        check_bytes(h * order * dtype.itemsize,
                    f"character table of order {quantity(order)} needs")
        # one row axis and one column axis per factor, most significant first
        table = np.ones([t.h for t in tables] + [t.order for t in tables],
                        dtype)
        for i, t in enumerate(tables):
            shape = [1] * table.ndim
            shape[i], shape[len(tables) + i] = t.table.shape
            table *= t.table.reshape(shape)

        def radix(parts):
            return functools.reduce(
                lambda acc, tp: np.add.outer(acc * tp[0].h, tp[1]).ravel(),
                zip(tables, parts), np.zeros(1, dtype=np.int64))

        return cls._trusted(
            table.reshape(h, order), radix(t.class_of for t in tables),
            functools.reduce(np.kron, [t.degrees for t in tables],
                             np.ones(1, dtype=np.int64)).tolist(),
            int(radix([t.trivial_index()] for t in tables)[0]),
            radix(t.conjugate for t in tables))

    @classmethod
    def _trusted(cls, table: np.ndarray, class_of, degrees, trivial: int,
                 conjugate: np.ndarray) -> "CharacterTable":
        """Wrap a table whose rows are orthogonal and within their
        degrees by construction, with its trivial row and conjugates,
        skipping the constructor's checks."""
        out = object.__new__(cls)
        out._record(table, class_of, degrees, trivial, conjugate)
        return out

    def trivial_index(self) -> int:
        return self._trivial

    @classmethod
    def from_json(cls, text: str) -> "CharacterTable":
        """Parse and validate a table; every failure is one ValueError
        starting "character table JSON"."""
        keys = ("h", "order", "table", "class_of", "degrees")
        try:
            data = json.loads(text)
            if not isinstance(data, dict) or not all(k in data for k in keys):
                raise ValueError("needs an object with the keys "
                                 f"{', '.join(keys)}")
            for key in ("h", "order"):
                if type(data[key]) is not int or data[key] < 1:
                    raise ValueError(f"{key} must be a positive integer, "
                                     f"got {data[key]!r}")
            try:
                table = [complex(re, im) for re, im in data["table"]]
                arr = np.asarray(table, dtype=complex).reshape(data["h"],
                                                               data["order"])
            except (OverflowError, TypeError, ValueError):
                raise ValueError("table must hold h*order [re, im] "
                                 "pairs") from None
            return cls(data["h"], data["order"], arr, data["class_of"],
                       data["degrees"])
        # json.loads recurses once per nesting level of the text
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"character table JSON: {exc}") from None

    def to_json(self) -> str:
        flat = [[float(z.real), float(z.imag)] for z in self.table.flat]
        return json.dumps({
            "h": self.h,
            "order": self.order,
            "table": flat,
            "class_of": [int(c) for c in self.class_of],
            "degrees": list(self.degrees),
        })


def _class_leads(class_of: np.ndarray, h: int) -> np.ndarray:
    """The first element of each element's class, over all elements."""
    lead = np.empty(h, dtype=np.int64)
    lead[class_of[::-1]] = np.arange(len(class_of))[::-1]
    return lead[class_of]


def _cyclic_characters(m: int) -> np.ndarray:
    """Table of Z_m: chi_a(x) = w^(a x) with w = exp(2 pi i / m), and the
    powers of w at quarter turns exactly 1, i, -1, -i."""
    k = np.arange(m)
    roots = np.exp(2j * np.pi * k / m)
    quarter = np.flatnonzero(4 * k % m == 0)
    roots[quarter] = np.array([1, 1j, -1, -1j])[4 * quarter // m]
    return roots[np.outer(k, k) % m]


def characters_abelian(G: AbelianGroupSpec) -> CharacterTable:
    """Full character table chi_a(x) = prod_j exp(2 pi i a_j x_j / m_j).

    The CharacterTable.product of the cyclic tables, first modulus innermost
    as in the element indexing.  The cyclic tables are DFT matrices, whose
    rows are orthogonal and of modulus one by construction, so they skip the
    constructor's O(m^3) Gram check.  They are exact at quarter turns, so
    Z_2^t tables are exactly +-1, and stored as float64: 8 bytes per entry
    where every other group takes 16.
    """
    # product checks the same bytes, but only after the factors are built,
    # and one cyclic factor of order m takes 24 m^2 bytes to build
    order = G.order
    real = set(G.moduli) == {2}
    check_bytes(order * order * np.dtype(float if real else complex).itemsize,
                f"character table of order {order} needs")
    table = CharacterTable.product(
        CharacterTable._trusted(_cyclic_characters(m), np.arange(m), [1] * m,
                                0, -np.arange(m) % m)
        for m in G.moduli)
    table.group = G
    return table


class GroupMapMatrix:
    """Matrix of group elements g(x, y), stored as element indices."""

    __slots__ = ("group", "order", "entries")

    def __init__(self, entries, group: AbelianGroupSpec | None = None,
                 order: int | None = None):
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("group map must be 2-dimensional and non-empty")
        if group is not None:
            order = group.order
        if order is None:
            raise ValueError("either a group or an explicit order is required")
        # the given entries, before a cast to int could truncate 0.5 to 0
        if not ((arr >= 0) & (arr < order) & (arr % 1 == 0)).all():
            raise ValueError("entries must be valid element indices")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        self.group = group
        self.order = order
        self.entries = arr

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def from_sign_blocks(cls, blocks) -> "GroupMapMatrix":
        """Combine t sign matrices into one map over Z_2^t.

        Block 1 is the most significant factor of the row/column indices and
        corresponds to bit 0 of the element index.
        """
        blocks = list(blocks)
        if not blocks:
            raise ValueError("need at least one block")
        return cls(block_mask(blocks), AbelianGroupSpec((2,) * len(blocks)))

    @classmethod
    def from_text(cls, text: str) -> "GroupMapMatrix":
        """Parse the group-map format: header "group m1,m2,...", then one
        line per row of comma-separated tuples like "a1:a2".  Every failure
        is one ValueError naming the group-map format."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()] or [""]
        head = lines[0]
        try:
            G = AbelianGroupSpec(
                [int(t) for t in head.removeprefix("group").split(",")]
                if head.startswith("group") else [])
        except ValueError:
            raise ValueError('group map must start with a "group m1,m2,..." '
                             "line of integer moduli >= 2, their product at "
                             f"most {MAX_GROUP_ORDER}; got {head!r}") from None
        rows = [ln.split(",") for ln in lines[1:]]
        if not rows:
            raise ValueError("group map has no rows")
        if len({len(row) for row in rows}) != 1:
            raise ValueError("all group-map rows must have equal length")
        cells = [c for row in rows for c in row]
        k = len(G.moduli)
        wrong = [c for c in cells if c.count(":") != k - 1]
        if wrong:
            raise ValueError(f"group-map element {wrong[0]!r} has "
                             f"{wrong[0].count(':') + 1} components, "
                             f"expected {k}")
        # every cell has k components, so one split yields them all in order
        try:
            digits = np.fromiter(map(int, ":".join(cells).split(":")),
                                 np.int64).reshape(len(rows), -1, k)
        except (OverflowError, ValueError):
            raise ValueError("group-map element components must be integers "
                             "in [0, m) for each modulus m") from None
        bad = np.flatnonzero(((digits < 0) | (digits >= G.moduli)).any(-1))
        if bad.size:
            raise ValueError(f"group-map element {cells[bad[0]]!r} is out of "
                             f"range for the moduli {G.moduli}")
        return cls(np.ravel_multi_index(np.moveaxis(digits, -1, 0), G.moduli,
                                        order="F"), G)

    def to_text(self) -> str:
        if self.group is None:
            raise ValueError("only Abelian group maps have a text form")
        digits = np.unravel_index(self.entries, self.group.moduli, order="F")
        cells = np.stack(digits, axis=-1).tolist()
        return "\n".join(
            ["group " + ",".join(map(str, self.group.moduli))]
            + [",".join(":".join(map(str, e)) for e in row) for row in cells]
        ) + "\n"


def pair_counts(pairs) -> np.ndarray:
    """The pair multiset of an array-like of (s, t) rows, such as
    {(g(x,y), g(x',y)) : y}: a read-only k x 3 int64 array of sorted
    (s, t, multiplicity) rows, with no (s, t) twice.  Entries must be
    non-negative integers (element indices)."""
    st = _integer_array(pairs, "pair").reshape(-1, 2)
    if (st < 0).any():
        raise ValueError("pair entries must be non-negative element indices")
    st, m = np.unique(st, axis=0, return_counts=True)
    out = np.column_stack([st, m])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PairFamilies:
    """The row-pair and column-pair multisets of a map, one array per family.

    Each family is a read-only k x 4 int64 array of (line pair, s, t,
    multiplicity) rows sorted with no (line pair, s, t) twice; line pair
    x * X + x' labels the pair (x, x') of the X rows (or columns).
    row_pairs and col_pairs map each (x, x') to its slice in pair_counts
    form, built on first access.
    """

    row_family: np.ndarray
    col_family: np.ndarray
    shape: tuple      # (rows, cols) of the map

    @functools.cached_property
    def row_pairs(self) -> dict:
        return _line_pair_slices(self.row_family, self.shape[0])

    @functools.cached_property
    def col_pairs(self) -> dict:
        return _line_pair_slices(self.col_family, self.shape[1])


@dataclass(frozen=True)
class HardnessPartition:
    easy: frozenset
    hard: frozenset

    @classmethod
    def from_easy(cls, easy, h: int):
        """Easy characters as listed, the rest of range(h) hard; ValueError
        unless the listed indices are distinct and in [0, h)."""
        easy = list(easy)
        unique = frozenset(easy)
        if len(unique) < len(easy) or any(not 0 <= i < h for i in unique):
            raise ValueError(f"easy indices must be distinct and in "
                             f"[0, {h}), got {easy}")
        return cls(easy=unique, hard=frozenset(range(h)) - unique)


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    copies: int | None
    counts: tuple
    diagonal_invariant: bool | None


@dataclass(frozen=True)
class GroupOrthogonalityReport:
    """all_pairs_invariant is the map's invariance where it was asked (the
    table was computed for the map's group and the pair keys fit the byte
    budget), else None."""

    max_row_violation: float
    max_col_violation: float
    passed: bool
    all_pairs_invariant: bool | None

    @property
    def route(self) -> str:
        """"invariance" when invariance decided the check, else "dense"."""
        return "invariance" if self.all_pairs_invariant else "dense"


@dataclass(frozen=True)
class TPrimeReport:
    direct_max: float
    conjugated_max: float
    threshold: float
    direct_ok: bool
    conjugated_ok: bool
    agree: bool


@dataclass(frozen=True)
class DualClassFunction:
    """Dual function h: support off the easy span, l1 at most 2, correlation
    with f strictly above the distance delta."""

    h: np.ndarray
    delta: float
    easy_coeff_max: float
    l1: float
    correlation: float
    hard_support_ok: bool
    l1_ok: bool
    correlation_ok: bool

    @property
    def ok(self) -> bool:
        return self.hard_support_ok and self.l1_ok and self.correlation_ok


def _line_pair_multisets(E: np.ndarray, order: int) -> np.ndarray:
    """The family of pair multisets {(E[x, y], E[x', y]) : y} over every
    ordered row pair (x, x'), as PairFamilies holds it, counted in one pass
    over the keys (x, x', E[x, y], E[x', y]).

    The keys are sorted rather than binned: a bincount would need X^2 |G|^2
    cells, 2 GiB for a 128 x 128 map over Z_128.
    """
    X = E.shape[0]
    pair = np.arange(X * X).reshape(X, X, 1)
    key = (pair * order + E[:, None, :]) * order + E[None, :, :]
    keys, counts = np.unique(key, return_counts=True)
    family = np.column_stack([keys // (order * order), keys // order % order,
                              keys % order, counts])
    family.setflags(write=False)
    return family


def _line_pair_slices(family: np.ndarray, X: int) -> dict:
    """(x, x') -> the (s, t, multiplicity) rows of line pair x * X + x'."""
    bounds = np.searchsorted(family[:, 0], np.arange(X * X + 1)).tolist()
    lines = itertools.product(range(X), repeat=2)
    return {ij: family[lo:hi, 1:]
            for ij, lo, hi in zip(lines, bounds, bounds[1:])}


def pair_multisets(gmap: GroupMapMatrix) -> PairFamilies:
    """All row-pair multisets S^{x,x'} and column-pair multisets T^{y,y'}.

    ResourceLimitError, before anything is allocated, when a family's
    X^2 Y (or X Y^2) int64 keys would pass MAX_TABLE_BYTES.
    """
    E = gmap.entries
    X, Y = E.shape
    check_bytes(np.dtype(np.int64).itemsize * max(X * X * Y, X * Y * Y),
                f"pair multisets of a {X}x{Y} map need")
    return PairFamilies(row_family=_line_pair_multisets(E, gmap.order),
                        col_family=_line_pair_multisets(E.T, gmap.order),
                        shape=(X, Y))


def _differences(G: AbelianGroupSpec, s: np.ndarray,
                 t: np.ndarray) -> np.ndarray:
    """The index of t - s in G for arrays of element indices s and t."""
    if set(G.moduli) == {2}:
        return s ^ t    # in Z_2^k the index bits are the components
    d = np.zeros_like(t)
    stride = 1
    for m in G.moduli:
        d += (t // stride - s // stride) % m * stride
        stride *= m
    return d


def g_invariant(T: np.ndarray, G: AbelianGroupSpec) -> bool:
    """Exact check that (u,u)T = T as multisets for every u in G.

    T is one pair multiset, k x 3 (s, t, multiplicity) rows as pair_counts
    builds them, or a family of them, k x 4 (label, s, t, multiplicity)
    rows as PairFamilies holds them.  The shift (u, u) keeps the label and
    the difference t - s and moves s through all of G, so T is fixed exactly
    when, grouped by (label, t - s), every group has |G| rows, one per s,
    all of one multiplicity.  One sort of the (label, t - s, multiplicity)
    keys forms the groups, so a family is checked as a whole.  ValueError
    unless the (label, s, t) keys strictly increase and s, t are elements
    of G, and when G is None.
    """
    if G is None:
        raise ValueError(_NO_GROUP)
    if T.ndim != 2 or T.shape[1] not in (3, 4) or T.dtype.kind not in "iu":
        raise ValueError("pair multiset rows must be integer (s, t, "
                         "multiplicity) or (label, s, t, multiplicity)")
    s, t, m = T[:, -3:].T.copy()
    if s.size and (min(s.min(), t.min()) < 0 or
                   max(s.max(), t.max()) >= G.order):
        raise ValueError(f"pair entries must be non-negative element indices "
                         f"below {G.order}")
    label = T[:, 0] * G.order if T.shape[1] == 4 else 0
    if (np.diff((label + s) * G.order + t) <= 0).any():
        raise ValueError("pair multiset rows must be sorted with no "
                         "(label, s, t) key twice")
    # distinct (label, s, t) keys give each (label, t - s, multiplicity) at
    # most |G| rows, so T is fixed exactly when the sorted keys come in runs
    # of |G| equal ones
    orbit = label + _differences(G, s, t)
    runs = np.sort(orbit * (int(m.max(initial=0)) + 1) + m)
    return len(runs) % G.order == 0 and \
        bool((runs.reshape(-1, G.order) == runs[::G.order, None]).all())


def all_pairs_invariant(gmap: GroupMapMatrix) -> bool:
    """Is every row-pair and column-pair multiset of an Abelian map fixed
    by every diagonal shift (s, s)?"""
    if gmap.group is None:
        raise ValueError(_NO_GROUP)
    fam = pair_multisets(gmap)
    return g_invariant(fam.row_family, gmap.group) and \
        g_invariant(fam.col_family, gmap.group)


def _off_diagonal_max(E: np.ndarray) -> float:
    mag = np.abs(E)
    np.fill_diagonal(mag, 0.0)
    return float(mag.max())


def orthogonality_sums(T: np.ndarray, table: CharacterTable) -> float:
    """max over i != j of |sum over T of chi_i(s) conj(chi_j(t))|, summed
    directly over T's rows as one h x k by k x h product."""
    s, t, m = T.T
    return _off_diagonal_max(
        (table.table[:, s] * m) @ table.table[:, t].conj().T)


def _lines_uniform(E: np.ndarray, order: int) -> bool:
    """Does every row of E hit every element equally often?"""
    X, Y = E.shape
    if Y % order:    # also keeps the count table within X * Y cells
        return False
    keys = np.arange(X)[:, None] * order + E
    return bool((np.bincount(keys.reshape(-1), minlength=X * order)
                 == Y // order).all())


def regularity_check(gmap: GroupMapMatrix) -> RegularityReport:
    """Is the value multiset of g an exact multiple of G?

    Counts every element exactly; also reports whether the diagonal pair
    multisets are invariant (for Abelian maps), the hypothesis under which
    invariance already forces regularity.  (s,s) fixes the diagonal multiset
    of a line exactly when the line hits every element equally often, so
    that comes from per-line counts too.  copies is None when |G| does not
    divide the map's size.
    """
    E = gmap.entries
    counts = np.bincount(E.reshape(-1), minlength=gmap.order)
    copies = E.size // gmap.order if E.size % gmap.order == 0 else None
    regular = copies is not None and bool((counts == copies).all())
    diag = None
    if gmap.group is not None:
        diag = _lines_uniform(E, gmap.order) or _lines_uniform(E.T, gmap.order)
    return RegularityReport(regular=regular, copies=copies,
                            counts=tuple(int(c) for c in counts),
                            diagonal_invariant=diag)


def _invariance(gmap: GroupMapMatrix, table: CharacterTable) -> bool | None:
    """all_pairs_invariant(gmap) when table is the one characters_abelian
    computed for gmap's group and the pair keys fit the byte budget, else
    None: a wide map over few hard characters may still fit the stacks."""
    if table.group is None or table.group != gmap.group:
        return None
    try:
        return all_pairs_invariant(gmap)
    except ResourceLimitError:
        return None


def orthogonality_general(gmap: GroupMapMatrix, table: CharacterTable,
                          hard) -> GroupOrthogonalityReport:
    """Check of the cross-character orthogonality condition.

    For all pairs of rows, columns, and distinct hard characters i, j the
    sums sum_y psi_i(g(x,y)) conj(psi_j(g(x',y))) (and the column analogue)
    must vanish; thresholds are 1e-8 * |Y| and 1e-8 * |X|.

    When table was computed for the map's group, all_pairs_invariant is
    asked first, if its pair keys fit the byte budget.  If every pair
    multiset is fixed by every diagonal shift (u, u), each sum equals
    itself times chi_i(u) conj(chi_j(u)), which is not 1 for some u when
    i != j; so every sum is exactly 0 and the report passes with violations
    0.0 (route "invariance").  Otherwise, and for any other table, the sums
    are computed (route "dense"): character i against every later one at
    once, in two batched products.
    ResourceLimitError first when the k x X x Y stack, its conjugate (a
    real stack is its own) and one batched product with its moduli would
    pass MAX_TABLE_BYTES.
    """
    hard = sorted(hard)
    k, (X, Y) = len(hard), gmap.entries.shape
    invariant = _invariance(gmap, table)
    worst_row = worst_col = 0.0
    if not invariant:
        size = table.table.itemsize
        copies = 2 if table.table.dtype.kind == "c" else 1
        check_bytes(k * (copies * size * X * Y + (size + 8) * max(X, Y) ** 2),
                    f"{k} character stacks over a {X}x{Y} map need")
        S = table.table[hard][:, gmap.entries]
        conj = S.conj() if copies == 2 else S
        conj_t = conj.transpose(0, 2, 1)
        for i in range(k - 1):
            worst_row = max(worst_row,
                            float(np.abs(S[i] @ conj_t[i + 1:]).max()))
            worst_col = max(worst_col,
                            float(np.abs(S[i].T @ conj[i + 1:]).max()))
    return GroupOrthogonalityReport(
        max_row_violation=worst_row, max_col_violation=worst_col,
        passed=worst_row <= _SUM_TOL * Y and worst_col <= _SUM_TOL * X,
        all_pairs_invariant=invariant)


def tprime_check(T: np.ndarray, table: CharacterTable) -> TPrimeReport:
    """Two independent routes to the same diagonalization statement.

    Route one sums chi_i(s) conj(chi_j(t)) directly over the multiset; route
    two class-averages the multiset into T', conjugates with the character
    matrix, and measures off-diagonal mass.  The two verdicts must agree.
    """
    h = table.h
    direct = orthogonality_sums(T, table)
    # class-averaged matrix conjugated by the table
    s, t, m = T.T
    cls = table.class_of
    sizes = np.bincount(cls, minlength=h)[cls]
    class_sum = np.zeros((h, h))    # total mass per class pair
    np.add.at(class_sum, (cls[s], cls[t]), m)
    Tprime = class_sum[np.ix_(cls, cls)] / np.outer(sizes, sizes)
    conjugated = _off_diagonal_max(table.table @ Tprime
                                   @ table.table.conj().T)
    thr = _SUM_TOL * max(int(m.sum()), 1)
    d_ok = direct <= thr
    c_ok = conjugated <= thr
    return TPrimeReport(direct_max=direct, conjugated_max=conjugated,
                        threshold=thr, direct_ok=d_ok, conjugated_ok=c_ok,
                        agree=d_ok == c_ok)


# ---------------------------------------------------------------------------
# distance to the easy span and its dual

def _real_span_basis(table: CharacterTable, members) -> np.ndarray:
    """Real basis of the real functions in the span of the characters
    in members.

    A real f in the span of a set of characters lies in the span of the
    set's conjugation-closed part, so in the real span of Re chi and Im chi
    over that part.  A Chebyshev LP over the basis whose tableau would pass
    MAX_TABLE_BYTES is refused before the basis is built.
    """
    members = [int(a) for a in members]
    inside = set(members)
    rows = table.table
    basis = []      # views of rows until np.array copies them
    for a, b in zip(members, table.conjugate[members].tolist()):
        if b == a:
            basis.append(rows[a].real)
        elif a < b and b in inside:
            basis += [rows[a].real, rows[a].imag]
    check_tableau(len(basis) + 1, 2 * rows.shape[1], 1)
    return np.array(basis).reshape(-1, rows.shape[1])


def _easy_span_lp(fv: np.ndarray, table: CharacterTable, easy):
    """Chebyshev LP from a real f to the span of the easy characters."""
    if fv.shape != (table.order,):
        raise ValueError("f must assign one real value per group element")
    return chebyshev(fv, _real_span_basis(table, sorted(easy)))


def distance_to_easy(fvals, table: CharacterTable, easy) -> float:
    """Entrywise (sup-norm) distance from f to the span of the easy characters."""
    return _easy_span_lp(np.asarray(fvals, dtype=float), table, easy)[0]


def dual_h(fvals, table: CharacterTable, easy) -> DualClassFunction:
    """Dual of the distance LP: a real h with no easy-character support,
    sum |h| <= 2, and |sum f conj(h)| strictly above the distance.

    A real h orthogonal to chi is orthogonal to conj(chi) too, so h
    certifies the distance to the conjugation-closed part of the easy set
    only; an easy character whose conjugate is hard can keep support in h.
    """
    fv = np.asarray(fvals, dtype=float)
    easy = sorted(easy)
    delta, _, v = _easy_span_lp(fv, table, easy)
    h = 2.0 * v
    coeffs = table.table[easy] @ h / table.order  # h is real: conj(h) = h
    easy_max = float(np.abs(coeffs).max()) if easy else 0.0
    l1 = float(np.abs(h).sum())
    corr = float(abs(fv @ h))
    return DualClassFunction(
        h=h, delta=delta, easy_coeff_max=easy_max, l1=l1, correlation=corr,
        hard_support_ok=easy_max <= _SUM_TOL,
        l1_ok=l1 <= 2.0 + 1e-9,
        correlation_ok=corr > delta,
    )


# ---------------------------------------------------------------------------
# bound evaluators

def check_class_function(fvals, table: CharacterTable) -> np.ndarray:
    """fvals as floats; ValueError unless they are one finite value per
    element of table's group, constant on each conjugacy class."""
    fv = np.asarray(fvals, dtype=float)
    if fv.shape != (table.order,):
        raise ValueError(f"f must have one value per group element "
                         f"({table.order})")
    if not np.isfinite(fv).all():
        raise ValueError("class-function values must be finite")
    lead = _class_leads(table.class_of, table.h)
    off = np.flatnonzero(fv != fv[lead])
    if off.size:
        e = off[0]
        raise ValueError(f"values are not a class function: elements "
                         f"{lead[e]} and {e} share class "
                         f"{table.class_of[e]} but differ")
    return fv


def check_table_order(gmap: GroupMapMatrix, table: CharacterTable,
                      what: str = "character table") -> None:
    """ValueError unless table is of the group map's order."""
    if table.order != gmap.order:
        raise ValueError(f"{what} has order {table.order}, but the group "
                         f"map has order {gmap.order}")


def _spectral_norms(table: CharacterTable, chars, gmap: GroupMapMatrix):
    """The spectral norm ||[chi(g(x, y))]|| of each chi in chars, a list.
    ResourceLimitError first when the k x X x Y stack of the character
    matrices, of the table's dtype, would pass MAX_TABLE_BYTES.  A real
    stack, as every one over Z_2^t or of real characters of a complex
    table, takes the faster real SVD."""
    X, Y = gmap.entries.shape
    check_bytes(table.table.itemsize * len(chars) * X * Y,
                f"{len(chars)} character matrices over a {X}x{Y} map need")
    stack = table.table[chars][:, gmap.entries]
    if stack.dtype.kind == "c" and not stack.imag.any():
        stack = stack.real
    return np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()


def general_bound(gmap: GroupMapMatrix, fvals, table: CharacterTable,
                  partition: HardnessPartition, epsilon: float, *,
                  checked: tuple | None = None) -> BoundReport:
    """Main term log2(sqrt(MN) (delta - 2 eps) / max_hard(max|psi| * ||[psi(g)]||)).

    Preconditions checked here: values that are a class function,
    regularity of the map, orthogonality of the hard characters, a
    non-empty hard set, and delta > 2 eps.  An epsilon outside [0, 1) or a
    table of another order is a ValueError.  A caller that has already run
    check_class_function(fvals, table), regularity_check(gmap) and
    orthogonality_general(gmap, table, partition.hard) passes the two
    reports as checked, and none of the three runs again.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    check_table_order(gmap, table)
    report = BoundReport(theorem="general-group")
    easy = sorted(partition.easy)
    unpaired = [int(a) for a in easy
                if table.conjugate[a] not in partition.easy]
    if unpaired:
        # a real approximant cannot use chi without conj(chi)
        report.warnings.append(
            f"easy characters {unpaired} have conjugates outside the easy "
            "set; delta covers only its conjugation-closed part")
    if checked is None:
        fv = check_class_function(fvals, table)
        reg = regularity_check(gmap)
        orth = orthogonality_general(gmap, table, partition.hard) \
            if reg.regular else None
    else:
        fv = np.asarray(fvals, dtype=float)
        reg, orth = checked
    if not reg.regular:
        why = "element counts are not all equal" if reg.copies is not None \
            else (f"matrix size {gmap.entries.size} is not divisible by the "
                  f"group order {gmap.order}")
        return report.refuse(f"regularity fails: {why}")
    if not orth.passed:
        return report.refuse(
            f"orthogonality fails: max violations {orth.max_row_violation:.3g} "
            f"(rows), {orth.max_col_violation:.3g} (cols)")
    if not partition.hard:
        return report.refuse("hard set is empty, no denominator")
    delta = distance_to_easy(fv, table, partition.easy)
    margin = delta - 2.0 * epsilon
    if margin <= 0:
        report.intermediates = {"delta": delta, "epsilon": epsilon}
        return report.refuse(f"delta - 2 eps = {margin:.6g} is not positive")
    MN = gmap.entries.size
    hard = sorted(partition.hard)
    norms = _spectral_norms(table, hard, gmap)
    peaks = np.abs(table.table[hard]).max(axis=1).tolist()
    per_char = {i: {"spectral_norm": norm, "max_value": peak}
                for i, norm, peak in zip(hard, norms, peaks)}
    denom = max(peak * norm for norm, peak in zip(norms, peaks))
    report.main_term = math.log2(math.sqrt(MN) * margin / denom)
    report.intermediates = {
        "delta": delta,
        "epsilon": epsilon,
        "size": MN,
        "denominator": denom,
        "per_character": per_char,
    }
    return report


def _product_characters(tables):
    """The number of non-identity components of every product character,
    and the product's CharacterTable, whose rows are those characters.

    The first group is the least significant factor of the element index,
    as in CharacterTable.product.
    """
    product = CharacterTable.product(tables)  # its byte check precedes nonid
    nonid = np.zeros(1, dtype=np.int64)
    for t in reversed(tables):
        nonid = np.add.outer(nonid,
                             np.arange(t.h) != t.trivial_index()).ravel()
    return nonid, product


def product_approx_degree(fvals, tables, epsilon: float) -> int:
    """Smallest d for which characters with at most d non-identity components
    approximate f, a class function of the product group, within epsilon in
    sup norm.  The errors are nonincreasing in d.  Two need no LP: at d = 0
    the span is the trivial character, so the error is (max f - min f)/2,
    and all characters span every real class function, so d = t, the
    number of blocks, is exact.  The degrees in between are searched
    (approx._first_fit), one Chebyshev LP per degree probed."""
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    tables = list(tables)
    nonid, product = _product_characters(tables)
    fv = check_class_function(fvals, product)
    tol = epsilon + _FEAS_TOL
    if (fv.max() - fv.min()) / 2 <= tol:
        return 0

    def fits(d: int) -> bool:
        basis = _real_span_basis(product, np.flatnonzero(nonid <= d))
        return chebyshev(fv, basis)[0] <= tol

    return _first_fit(0, len(tables), fits)


def block_group_bound(gmaps, fvals, tables) -> BoundReport:
    """Minimum over admissible character choices of the per-block log terms.

    main_term = min over subsets S with |S| > d and non-identity characters
    chi_i of sum_{i in S} log2(sqrt(size(M_gi)) / (deg(chi_i) ||[chi_i(g_i)]||)),
    where d is the product approximate degree of f at 1/3.  Exact, by
    enumeration (per-block minima are independent, so sorting suffices).
    """
    gmaps = list(gmaps)
    tables = list(tables)
    if len(gmaps) != len(tables):
        raise ValueError("need one character table per block")
    for i, (gm, tb) in enumerate(zip(gmaps, tables)):
        check_table_order(gm, tb, f"block {i + 1}'s character table")
    t = len(gmaps)
    norm_evals = sum(tb.h - 1 for tb in tables)
    if norm_evals > 4096:
        raise ResourceLimitError(
            f"block bound needs {norm_evals} character-norm evaluations "
            "(cap 4096)")
    report = BoundReport(theorem="block-group")
    for i, (gm, tb) in enumerate(zip(gmaps, tables)):
        reg = regularity_check(gm)
        # with every character hard, invariance decides orthogonality both
        # ways: the pair multisets' transforms vanish off the diagonal
        orthogonal = _invariance(gm, tb)
        if orthogonal is None:
            orthogonal = orthogonality_general(gm, tb, range(tb.h)).passed
        if not (reg.regular and orthogonal):
            return report.refuse(
                f"block {i + 1} fails its structural condition "
                f"(regular={reg.regular}, orthogonal={orthogonal})")
    d = product_approx_degree(fvals, tables, 1.0 / 3.0)
    report.intermediates["d"] = d
    if d >= t:
        return report.refuse(
            f"no subset larger than d={d} exists among {t} blocks")
    best_term = []
    best_char = []
    for gm, tb in zip(gmaps, tables):
        chars = np.delete(np.arange(tb.h), tb.trivial_index())
        norms = _spectral_norms(tb, chars, gm)
        terms = [math.log2(math.sqrt(gm.entries.size) / (tb.degrees[c] * norm))
                 for c, norm in zip(chars, norms)]
        c_best = int(np.argmin(terms))
        best_term.append(terms[c_best])
        best_char.append(chars[c_best])
    # totals[k] sums the k + 1 smallest terms; subsets larger than d start
    # at k = d, and the first minimum wins ties
    order = np.argsort(best_term, kind="stable")
    totals = np.cumsum(np.array(best_term)[order])
    k = d + int(np.argmin(totals[d:]))
    report.main_term = float(totals[k])
    report.intermediates.update({
        "per_block_best_term": list(best_term),
        "per_block_best_character": [int(c) for c in best_char],
        "chosen_blocks": np.sort(order[:k + 1] + 1).tolist(),
    })
    return report


@dataclass(frozen=True)
class DegenerationReport:
    all_pairs_invariant: bool
    all_blocks_strongly_balanced: bool
    equivalent: bool


def degeneration_check(blocks) -> DegenerationReport:
    """Both sides of the Z_2-blocks equivalence, evaluated independently:
    invariance of every pair multiset of the combined map versus strong
    balance of every block."""
    blocks = list(blocks)
    gmap = GroupMapMatrix.from_sign_blocks(blocks)
    invariant = all_pairs_invariant(gmap)
    balanced = all(balance_check(b).strongly_balanced for b in blocks)
    return DegenerationReport(
        all_pairs_invariant=invariant,
        all_blocks_strongly_balanced=balanced,
        equivalent=invariant == balanced,
    )
