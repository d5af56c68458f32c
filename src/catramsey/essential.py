"""Essential colorings at B, relative to a finite ambient object.

A t-coloring lambda of hom(A, B) is essential at B when every coloring chi of
hom(A, ambient) admits w in hom(B, ambient) with ker lambda contained in
ker chi^(w), where chi^(w)(f) = chi(w.f).  Only the kernel of chi matters,
and every kernel coarsens the discrete one, so a single w that works for the
discrete chi works for all chi.  Existence therefore reduces to a scan over
w: lambda essential iff lambda refines the fiber partition {f : w.f = g} of
some w.  The tests check this scan against an independent oracle that
enumerates the candidate lambdas and ambient kernels outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CategoryError, FiniteCategory
from .kernel import DEFAULT_BUDGET
from .arrows import ArrowQuery, check_arrow


@dataclass(frozen=True)
class EssentialQuery:
    A: int
    B: int
    ambient: int
    t: int

    def __post_init__(self):
        if type(self.t) is not int:  # bool is an int subclass, but no color count
            raise CategoryError(f"t must be an int, got {self.t!r}")
        if self.t < 2:
            raise CategoryError("t must be >= 2")


def _validate(cat: FiniteCategory, q: EssentialQuery) -> None:
    cat.check_object(q.A)
    cat.check_object(q.B)
    cat.check_object(q.ambient)
    if not cat.hom(q.A, q.B):
        raise CategoryError("hom(A, B) is empty")
    if not cat.hom(q.B, q.ambient):
        raise CategoryError("hom(B, ambient) is empty")


def _w_partition(cat: FiniteCategory, q: EssentialQuery, w: int) -> dict[int, int]:
    """Block index of each f in hom(A, B) under f ~ f' iff w.f = w.f'."""
    blocks: dict[int, int] = {}
    out = {}
    for f in cat.hom(q.A, q.B):
        wf = cat.compose(w, f)
        if wf not in blocks:
            blocks[wf] = len(blocks)
        out[f] = blocks[wf]
    return out


def find_essential_at_B(cat: FiniteCategory, q: EssentialQuery) -> dict[int, int] | None:
    """An essential lambda as a mapping hom(A, B) -> {0..t-1}, or None.

    Scans w in hom(B, ambient) for one whose fiber partition has at most t
    blocks; the block-index coloring is then essential, and is replay-checked
    against the kernel-containment definition before being returned.
    """
    _validate(cat, q)
    for w in cat.hom(q.B, q.ambient):
        lam = _w_partition(cat, q, w)
        if max(lam.values()) + 1 <= q.t:
            if not _replay_essential(cat, q, lam, w):
                raise RuntimeError("internal error: essential coloring failed replay")
            return lam
    return None


def _replay_essential(cat: FiniteCategory, q: EssentialQuery, lam: dict[int, int], w: int) -> bool:
    """ker lambda <= ker chi^(w) for the discrete chi (hence for every chi)."""
    hom_ab = cat.hom(q.A, q.B)
    for f1 in hom_ab:
        for f2 in hom_ab:
            if lam[f1] == lam[f2] and cat.compose(w, f1) != cat.compose(w, f2):
                return False
    return True


def crosscheck_essential_arrow(
    cat: FiniteCategory,
    A: int,
    B: int,
    ambient: int,
    t: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> dict:
    """Essential-coloring existence against the arrow relation.

    An essential lambda at t exists iff ambient -> (B)^A_{k,t} for every k;
    k beyond |hom(A, ambient)| adds no new kernels, so that value bounds the
    quantifier.  The two sides run through unrelated code paths (w-scan vs
    exhaustive coloring search).
    """
    q = EssentialQuery(A, B, ambient, t)
    lam = find_essential_at_B(cat, q)

    k_sufficient = max(len(cat.hom(A, ambient)), 2)
    arrow_all_k = True
    inconclusive = False
    failing_k = None
    for k in range(2, k_sufficient + 1):
        v = check_arrow(cat, ArrowQuery(A, B, ambient, k, t), budget=budget, threads=threads)
        if v.holds is None:
            inconclusive = True
            break
        if not v.holds:
            arrow_all_k = False
            failing_k = k
            break
    if inconclusive:
        return {"status": "inconclusive", "reason": "arrow search budget exceeded"}
    agree = (lam is not None) == arrow_all_k
    return {
        "status": "ok" if agree else "violation",
        "essential_exists": lam is not None,
        "arrow_all_k": arrow_all_k,
        "k_sufficient": k_sufficient,
        "failing_k": failing_k,
    }
