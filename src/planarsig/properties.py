"""Cross-check battery for randomized fibrations.

Each check recomputes an exported invariant along two routes that must
agree, or perturbs the input in a way that must not change the result.
The fuzz command drives this battery over seeded random instances;
``tests/test_acceptance.py`` runs the same checks, by name, on its
fixed corpus of about 4,300 instances.

The order and sign checks compare boundary maps, not Wall corrections.
On a planar fiber the intersection form on H_1 vanishes, so the Dehn
twists commute on homology and T_{-gamma} = T_gamma: the boundary map,
the only input of the Wall route, must not change when the cycles are
permuted or one is given by its opposite class.  Equal maps give equal
corrections, so the Wall route runs once per instance, and a map that
depends on order or sign fails even where its correction happens to
agree.  The order check also compares the span dimension, the one
other input of the report that a permutation might change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import SignatureTriple, Subspace, symmetric_signature
from .surfaces import CurveClass, PlanarSurface
from .fibration import NEGATIVE_DEFINITE, ZERO_FORM, PlanarFibration
from .wall import lplus_closed_form, mapping_torus_boundary_map, psi_gram_closed_form


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_proper_subset(rng: random.Random, r: int) -> frozenset[int]:
    """Random nonempty proper subset of {0, ..., r}; requires r >= 1."""
    if r < 1:
        raise ValueError("no nonempty proper subsets exist for r = 0")
    while True:
        s = frozenset(i for i in range(r + 1) if rng.random() < 0.5)
        if s and len(s) <= r:
            return s


def random_fibration(rng: random.Random, max_r: int, max_m: int) -> PlanarFibration:
    r = rng.randint(0, max_r)
    m = rng.randint(0, max_m) if r >= 1 else 0
    cycles = [CurveClass.enclosing(random_proper_subset(rng, r)) for _ in range(m)]
    return PlanarFibration(PlanarSurface(r), cycles)


def check_fibration(fib: PlanarFibration, rng: random.Random) -> list[CheckResult]:
    """Run every invariant check on one instance.

    ``rng`` drives the metamorphic perturbations (cycle permutation,
    sign flip, appended cycle); pass a seeded instance for
    reproducibility.
    """
    results: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str = ""):
        results.append(CheckResult(name, passed, "" if passed else detail))

    surface = fib.surface
    r, m = surface.r, fib.m
    vectors = fib.class_vectors()
    report = fib.betti_report()
    bmap, wc, d = report.boundary_map, report.wall, report.d

    add(
        "span-formula-vs-wall-oracle",
        report.sigma == report.oracle_sigma,
        f"sigma {report.sigma} vs oracle {report.oracle_sigma}",
    )
    add(
        "correction-positive-definite",
        wc.correction == SignatureTriple(wc.w_dim, 0, 0) and wc.defect == wc.w_dim,
        f"correction {tuple(wc.correction)} with w_dim {wc.w_dim}",
    )
    add(
        "quotient-dim-equals-cycle-span",
        wc.w_dim == d,
        f"w_dim {wc.w_dim} vs span dim {d}",
    )
    add(
        "lplus-closed-form-vs-kernel",
        lplus_closed_form(r, vectors) == wc.triple.l_plus,
        "closed-form generators span a different subspace than the kernel",
    )
    gram_sig = symmetric_signature(psi_gram_closed_form(r, vectors))
    add(
        "gram-psd-of-span-rank",
        gram_sig == SignatureTriple(d, 0, r - d),
        f"gram inertia {tuple(gram_sig)} vs expected ({d}, 0, {r - d})",
    )
    add(
        "betti-signature-identity",
        report.sigma == -m + r - report.b1,
        f"sigma {report.sigma} vs -m + r - b1 = {-m + r - report.b1}",
    )
    expected_verdict = NEGATIVE_DEFINITE if report.b2 > 0 else ZERO_FORM
    add(
        "form-never-indefinite",
        report.intersection_form == SignatureTriple(0, m - d, 0)
        and report.definiteness == expected_verdict,
        f"form {tuple(report.intersection_form)} verdict {report.definiteness}",
    )
    add(
        "sigma-nonpositive",
        report.sigma <= 0 and (report.sigma == 0) == (d == m),
        f"sigma {report.sigma} with d {d} m {m}",
    )

    if m > 0:
        order = list(range(m))
        rng.shuffle(order)
        permuted = PlanarFibration(
            surface, [fib.cycles[i] for i in order], fib.force
        )
        add(
            "order-invariance",
            permuted.boundary_map().matrix == bmap.matrix
            and permuted.cycle_span_dim() == d,
            "boundary map or report changed under cycle permutation",
        )
        flip = rng.randrange(m)
        flipped = list(vectors)
        flipped[flip] = [-x for x in vectors[flip]]
        add(
            "sign-invariance",
            mapping_torus_boundary_map(r, flipped).matrix == bmap.matrix,
            f"boundary map changed when negating cycle {flip}",
        )

    if r >= 1:
        if m > 0 and rng.random() < 0.5:
            extra = fib.cycles[rng.randrange(m)]
        else:
            extra = CurveClass.enclosing(random_proper_subset(rng, r))
        extended = PlanarFibration(surface, fib.cycles + (extra,), fib.force)
        in_span = extended.class_vectors()[-1] in Subspace(r, vectors)
        expected = report.sigma - 1 if in_span else report.sigma
        got = extended.signature_from_cycle_span()
        add(
            "append-subadditivity",
            got == expected,
            f"appending a cycle ({'in' if in_span else 'outside'} span) "
            f"gave sigma {got}, expected {expected}",
        )

    return results


CHECK_NAMES = [
    "span-formula-vs-wall-oracle",
    "correction-positive-definite",
    "quotient-dim-equals-cycle-span",
    "lplus-closed-form-vs-kernel",
    "gram-psd-of-span-rank",
    "betti-signature-identity",
    "form-never-indefinite",
    "sigma-nonpositive",
    "order-invariance",
    "sign-invariance",
    "append-subadditivity",
]
