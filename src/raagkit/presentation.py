"""Group presentations by commutation graphs, and the word syntax.

A presentation is a finite ordered list of generator names plus a symmetric,
irreflexive set of commuting pairs. Generator order is declaration order; it
fixes the total order on signed letters used by the canonical form, so the
canonical form of every element is reproducible from the graph file alone.

Signed letters are encoded internally as small ints: generator i with sign +1
is ``2*i``, with sign -1 is ``2*i + 1``. The natural int order is exactly the
letter order i+ < i- < j+ < j- used everywhere downstream.
"""

from __future__ import annotations

from itertools import groupby

from .errors import ParseError, ResourceCapError

_FORBIDDEN_NAME_CHARS = set("^',#")

# The most letters a word may have, after expanding exponents.
MAX_WORD_LETTERS = 1_000_000


class _Frozen:
    """An immutable record of the attributes named in ``__slots__``: equal,
    hashed and shown by their values, as a frozen dataclass is."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SignedLetter(_Frozen):
    """A generator index with a sign, the atom of words."""

    __slots__ = ("gen", "sign")

    def __init__(self, gen: int, sign: int):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if gen < 0:
            raise ValueError(f"generator index must be nonnegative, got {gen}")
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "sign", sign)

    def inverse(self) -> "SignedLetter":
        return SignedLetter(self.gen, -self.sign)


class Word(_Frozen):
    """A raw, possibly unreduced sequence of signed letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[SignedLetter, ...]):
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


class CommutationGraph:
    """Finite generator set with a symmetric irreflexive commutation relation.

    generators: ordered list of distinct names (declaration order is the
    generator order). commuting_pairs: set of frozensets {i, j} of generator
    indices, i != j.
    """

    def __init__(self, generators: list[str], commuting_pairs: set[frozenset[int]]):
        names = list(generators)
        if not names:
            raise ValueError("at least one generator is required")
        seen: set[str] = set()
        for name in names:
            _validate_name(name)
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        n = len(names)
        pairs: set[frozenset[int]] = set()
        for pair in commuting_pairs:
            ab = sorted(pair)
            if len(ab) != 2:
                raise ValueError(f"self-commutation pair {sorted(pair)} is not allowed")
            i, j = ab
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) references an unknown generator index")
            pairs.add(frozenset((i, j)))
        self.generators: tuple[str, ...] = tuple(names)
        self.commuting_pairs: frozenset[frozenset[int]] = frozenset(pairs)
        self._index = {name: i for i, name in enumerate(names)}
        # Per-generator bitmask of the *other* generators it commutes with.
        comm = [0] * n
        for pair in pairs:
            i, j = sorted(pair)
            comm[i] |= 1 << j
            comm[j] |= 1 << i
        self.comm_mask: tuple[int, ...] = tuple(comm)
        # Gens that block g in the dependence order: g itself plus non-commuting others.
        full = (1 << n) - 1
        self.block_mask: tuple[int, ...] = tuple((full & ~comm[g]) for g in range(n))
        self.blockers: tuple[tuple[int, ...], ...] = tuple(
            tuple(h for h in range(n) if (self.block_mask[g] >> h) & 1) for g in range(n)
        )
        # The counted normal-form automaton, built by `sampling` on the first draw.
        self._normal_forms = None

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown generator {name!r}") from None

    def commutes(self, i: int, j: int) -> bool:
        """Whether distinct generators i and j commute (a generator commutes with itself in the group, but i==j returns False here: this is the graph relation)."""
        return bool((self.comm_mask[i] >> j) & 1)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CommutationGraph):
            return NotImplemented
        return self.generators == other.generators and self.commuting_pairs == other.commuting_pairs

    def __hash__(self) -> int:
        return hash((self.generators, self.commuting_pairs))

    def __repr__(self) -> str:
        edges = sorted(tuple(sorted(p)) for p in self.commuting_pairs)
        return f"CommutationGraph({list(self.generators)!r}, edges={edges!r})"


def _validate_name(name: str) -> None:
    if not name:
        raise ValueError("generator names must be nonempty")
    if any(ch.isspace() for ch in name):
        raise ValueError(f"generator name {name!r} contains whitespace")
    bad = _FORBIDDEN_NAME_CHARS.intersection(name)
    if bad:
        raise ValueError(f"generator name {name!r} contains forbidden character {sorted(bad)[0]!r}")
    if name == "1":
        # "1" is the rendering of the identity element; allowing it as a
        # generator name would make the word syntax ambiguous.
        raise ValueError('generator name "1" is reserved for the identity')


def parse_graph(text: str) -> CommutationGraph:
    """Parse the line-oriented graph format.

    First non-comment line: ``gens: n1 n2 ...``; then any number of
    ``edge: ni nj`` lines. ``#`` starts a comment; blank lines are ignored.
    Errors carry the 1-based line number.
    """
    names: list[str] | None = None
    pairs: set[frozenset[int]] = set()
    index: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if names is None:
            if not line.startswith("gens:"):
                raise ParseError("expected a 'gens:' line first", lineno)
            names = line[len("gens:"):].split()
            if not names:
                raise ParseError("no generators declared", lineno)
            for name in names:
                try:
                    _validate_name(name)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
                if name in index:
                    raise ParseError(f"duplicate generator {name!r}", lineno)
                index[name] = len(index)
            continue
        if line.startswith("gens:"):
            raise ParseError("only one 'gens:' line is allowed", lineno)
        if not line.startswith("edge:"):
            raise ParseError(f"malformed line {line!r} (expected 'edge: ni nj')", lineno)
        parts = line[len("edge:"):].split()
        if len(parts) != 2:
            raise ParseError("an edge needs exactly two generator names", lineno)
        a, b = parts
        for name in (a, b):
            if name not in index:
                raise ParseError(f"unknown generator {name!r} in edge", lineno)
        if a == b:
            raise ParseError(f"self-edge on {a!r} is not allowed", lineno)
        pairs.add(frozenset((index[a], index[b])))
    if names is None:
        raise ParseError("empty input: expected a 'gens:' line")
    return CommutationGraph(names, pairs)


def load_graph(path: str) -> CommutationGraph:
    """Read and parse a graph file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def parse_word(text: str, g: CommutationGraph) -> Word:
    """Parse whitespace-separated tokens ``name`` or ``name^k``, where k is a
    nonzero integer written as an optional sign and ASCII digits.

    ``name^k`` expands to |k| copies of the letter with sign sgn(k). The empty
    string is the empty word; so is the single token ``1`` (the rendering of
    the identity). Raises ResourceCapError, before expanding anything, when
    the word would have more than MAX_WORD_LETTERS letters.
    """
    tokens = text.split()
    if tokens == ["1"]:
        return Word(())
    runs: list[tuple[int, int]] = []
    for tok in tokens:
        if "^" in tok:
            name, _, exp = tok.partition("^")
            if "^" in exp:
                raise ParseError(f"malformed token {tok!r}: more than one '^'")
            # int() alone would also take "1_0" and non-ASCII digits such as "٣".
            digits = exp[1:] if exp.startswith(("+", "-")) else exp
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError(f"malformed exponent in token {tok!r}")
            k = int(exp)
            if k == 0:
                raise ParseError(f"zero exponent in token {tok!r}")
        else:
            name, k = tok, 1
        if not name or name not in g.generators:
            raise ParseError(f"unknown generator {name!r}")
        runs.append((g.gen_index(name), k))
    if sum(abs(k) for _, k in runs) > MAX_WORD_LETTERS:
        raise ResourceCapError("word length", MAX_WORD_LETTERS, "letters")
    letters: list[SignedLetter] = []
    for idx, k in runs:
        letters.extend([SignedLetter(idx, 1 if k > 0 else -1)] * abs(k))
    return Word(tuple(letters))


def render_codes(g: CommutationGraph, codes) -> str:
    """Pretty-print letter codes with run-length powers: ``a^3 b^-1``; the empty word is ``1``."""
    if not codes:
        return "1"
    chunks: list[str] = []
    for code, run in groupby(codes):
        count = len(list(run)) * (-1 if code & 1 else 1)
        name = g.generators[code >> 1]
        chunks.append(name if count == 1 else f"{name}^{count}")
    return " ".join(chunks)


def letter_code(letter: SignedLetter) -> int:
    """Internal int encoding: i+ is 2i and i- is 2i + 1, so int order is letter order."""
    return 2 * letter.gen + (0 if letter.sign > 0 else 1)


def code_letter(code: int) -> SignedLetter:
    """Inverse of letter_code."""
    return SignedLetter(code >> 1, -1 if code & 1 else 1)
