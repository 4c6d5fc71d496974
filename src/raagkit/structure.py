"""Primitive elements, commuting-power decompositions, and centralizers.

Up to conjugacy, every nontrivial element is a product of powers of
pairwise-orthogonal primitive elements, one per connected component of the
non-commutation graph induced on the support of its cyclic core.  The
centralizer is generated by those primitives together with the letters
orthogonal to all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjugacy import cyclic_reduce, is_cyclically_reduced, max_root
from .elements import GroupElement, _require_same_graph, canon_codes, mul_codes, render, support_codes
from .errors import InvariantViolationError
from .order import _noncomm_components
from .presentation import CommutationGraph


@dataclass(frozen=True)
class PrimitiveDecomposition:
    """w = ∏ pᵢ^{mᵢ} with the pᵢ primitive and pairwise commuting.

    The conjugator carries the pᵢ off the cyclic core: conjugating each pᵢ
    back by it yields pairwise-orthogonal roots.  Pairs are sorted by the
    letter codes of their canonical forms, so equal inputs decompose
    identically.
    """

    conjugator: GroupElement
    pairs: tuple[tuple[GroupElement, int], ...]

    def whole(self) -> GroupElement:
        out = GroupElement(self.conjugator.graph, ())
        for p, m in self.pairs:
            out = out * p**m
        return out

    def as_record(self) -> dict:
        return {
            "conjugator": render(self.conjugator),
            "pairs": [{"p": render(p), "m": m} for p, m in self.pairs],
        }


@dataclass(frozen=True)
class CentralizerPresentation:
    """Generators of the full commuting subgroup of one element.

    raag_generators generate a parabolic-like factor (conjugated letters);
    abelian_generators are the primitive parts and generate a free abelian
    direct factor.
    """

    raag_generators: tuple[GroupElement, ...]
    abelian_generators: tuple[GroupElement, ...]

    def as_record(self) -> dict:
        return {
            "raag_gens": [render(t) for t in self.raag_generators],
            "abelian_gens": [render(t) for t in self.abelian_generators],
        }


def s_perp_set(u: GroupElement) -> set[int]:
    """Generators orthogonal to u: outside its support, commuting with all of it."""
    g = u.graph
    supp = support_codes(u.codes)
    out: set[int] = set()
    for s in range(g.ngens):
        if s not in supp and all(g.commutes(s, t) for t in supp):
            out.add(s)
    return out


def is_primitive(w: GroupElement) -> bool:
    """Nontrivial, not a proper power, and with a two-ended cell under its core.

    The cell condition is decided by the support criterion: the
    non-commutation graph induced on the support of the cyclic core must be
    connected.  A disconnected support splits the core into commuting
    factors and the cell below it branches into more than two ends.
    """
    if w.is_identity():
        return False
    core = cyclic_reduce(w).core
    comps = _noncomm_components(w.graph, support_codes(core.codes))
    if len(comps) != 1:
        return False
    return max_root(core)[1] == 1


def prim_decompose(w: GroupElement) -> PrimitiveDecomposition:
    """Split w into powers of commuting primitives, unique up to order.

    The cyclic core is projected onto each connected component of its
    non-commutation support graph by deleting the other letters (letters of
    distinct components commute, so deletion is a retraction); each
    projection is a maximal power of a primitive root, and the roots are
    carried back by the core's conjugator.
    """
    if w.is_identity():
        raise ValueError("the identity has no primitive decomposition")
    g = w.graph
    r = cyclic_reduce(w)
    pairs = []
    for comp in _noncomm_components(g, support_codes(r.core.codes)):
        proj = canon_codes(g, tuple(c for c in r.core.codes if (c >> 1) in comp))
        root, m = max_root(GroupElement(g, proj))
        pairs.append((r.conjugator * root * ~r.conjugator, m))
    pairs.sort(key=lambda pm: pm[0].codes)
    return PrimitiveDecomposition(r.conjugator, tuple(pairs))


def _letter(g: CommutationGraph, s: int) -> GroupElement:
    return GroupElement(g, (2 * s,))


def centralizer(w: GroupElement) -> CentralizerPresentation:
    """Finite generating data for everything commuting with w.

    For nontrivial w the generators are the conjugated letters orthogonal
    to every primitive root of the core, plus the primitive parts
    themselves; each emitted generator is verified to commute with w.  The
    identity's centralizer is the whole group: all letters, no abelian part.
    """
    g = w.graph
    if w.is_identity():
        return CentralizerPresentation(
            tuple(_letter(g, s) for s in range(g.ngens)), ()
        )
    dec = prim_decompose(w)
    a = dec.conjugator
    common = set(range(g.ngens))
    for p, _ in dec.pairs:
        common &= s_perp_set(~a * p * a)
    raag = tuple(a * _letter(g, s) * ~a for s in sorted(common))
    abelian = tuple(p for p, _ in dec.pairs)
    for t in raag + abelian:
        if t * w != w * t:
            raise InvariantViolationError(
                f"centralizer generator {render(t)} fails to commute with {render(w)}"
            )
    return CentralizerPresentation(raag, abelian)


def in_centralizer(w: GroupElement, x: GroupElement) -> bool:
    """Whether x commutes with w."""
    _require_same_graph(w, x)
    g = w.graph
    return mul_codes(g, x.codes, w.codes) == mul_codes(g, w.codes, x.codes)


def center(g: CommutationGraph) -> list[int]:
    """Indices of the generators commuting with every other generator."""
    return [
        s
        for s in range(g.ngens)
        if all(g.commutes(s, t) for t in range(g.ngens) if t != s)
    ]


def h_basis(w: GroupElement) -> list[GroupElement]:
    """Free-abelian basis of the commuting elements sharing w's axis.

    Defined for cyclically reduced nontrivial w; the basis is the list of
    primitive roots of the decomposition (whose conjugator is trivial here).
    """
    if w.is_identity():
        raise ValueError("the identity has no primitive basis")
    if not is_cyclically_reduced(w):
        raise ValueError("basis extraction requires a cyclically reduced element")
    return [p for p, _ in prim_decompose(w).pairs]
