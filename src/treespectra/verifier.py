"""Executable checks for the eigenvalue bounds, non-integrality results,
multiplicity-raising witnesses, and nullity classifications.

Every check returns a VerdictRecord whose certificate payload is enough to
replay the instance standalone: polynomials in text form, exact interval
endpoints, witness vertices, canonical codes.

Each suite is a generator that yields its records; run_suite is the one
loop that runs a suite and gives every record its wall_time_ms.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import product
from math import isqrt
from typing import Iterable, Iterator, Optional, Sequence

from .catalog import CatalogRecord
from .enumeration import enumerate_free_trees
from .polys import (DivisibilityError, IntPoly, RealRoot,
                    count_roots_above, count_roots_at_least,
                    count_roots_open, even_part, lift_square, poly_gcd)
from .reduction import (pendant_report, pendant_growth_holds,
                        strip_monotonicity_holds)
from .search import SearchConfig, kept_codes, kept_record
from .spectra import (_integrality, _signature, char_poly,
                      char_poly_ring_with_pendants, courant_weyl_check,
                      inertia_integrality, join_formula, squared_shift_check)
from .trees import (Tree, attach_pendants, c_tree, grow, hub_vertices,
                    join_trees, path, s_tree, without_vertex)

_Y = IntPoly.x()  # the squared-eigenvalue variable y = x^2
_G_ROUNDS = 20  # random (a, b, c) triples per g-identity check


@dataclass
class VerdictRecord:
    check: str
    instance: dict
    passed: bool
    certificate: dict = field(default_factory=dict)
    wall_time_ms: Optional[float] = None

    def to_json(self, with_timing: bool = False) -> str:
        payload = {
            "check": self.check,
            "instance": self.instance,
            "verdict": "pass" if self.passed else "fail",
            "certificate": self.certificate,
        }
        if with_timing and self.wall_time_ms is not None:
            payload["wall_time_ms"] = round(self.wall_time_ms, 3)
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# largest-eigenvalue bounds for the caterpillar family


def eigencat_check(r: Sequence[int]) -> VerdictRecord:
    """With s >= t the two largest leaf counts, certify
    s+2 < lambda_1^2 < s+4 and lambda_2^2 >= t for the caterpillar."""
    if len(r) < 2:
        raise ValueError("needs at least two groups")
    tree = c_tree(r)
    s, t = sorted(r, reverse=True)[:2]
    _, q = even_part(char_poly(tree))
    lower = count_roots_above(q, s + 2).with_multiplicity >= 1
    upper = count_roots_at_least(q, s + 4) == 0
    second = count_roots_at_least(q, t) >= 2
    return VerdictRecord(
        check="eigencat",
        instance={"r": list(r), "s": s, "t": t},
        passed=lower and upper and second,
        certificate={
            "squared_poly": q.to_text(),
            "value_at_s_plus_2": str(q.evaluate(s + 2)),
            "value_at_s_plus_4": str(q.evaluate(s + 4)),
            "roots_above_s_plus_2": lower,
            "roots_above_s_plus_4": not upper,
            "second_at_least_t": second,
        })


def rhocat_check(n: int, j: int) -> VerdictRecord:
    """lambda_1^2 < 5 for the caterpillar with a single pair of leaves."""
    if not 1 <= j <= n:
        raise ValueError("position out of range")
    r = [0] * n
    r[j - 1] = 2
    tree = c_tree(r)
    _, q = even_part(char_poly(tree))
    ok = count_roots_at_least(q, 5) == 0
    return VerdictRecord(
        check="rhocat",
        instance={"n": n, "j": j},
        passed=ok,
        certificate={"squared_poly": q.to_text(),
                     "value_at_5": str(q.evaluate(5))})


def ring_subdivision_check(steps: int) -> VerdictRecord:
    """The cycle-with-two-pendants family: largest eigenvalue is exactly
    sqrt(5) at the start and strictly decreases with each cycle subdivision."""
    if steps < 1:
        raise ValueError("needs at least one subdivision step")
    phi0 = char_poly_ring_with_pendants(0)
    _, q0 = even_part(phi0)  # the starting graph is bipartite
    start_exact = (q0.evaluate(5) == 0
                   and count_roots_above(q0, 5).with_multiplicity == 0)
    chain_ok = True
    intervals = []
    prev = phi0
    for k in range(1, steps + 1):
        # odd cycles appear after one subdivision, so compare full polynomials
        phik = char_poly_ring_with_pendants(k)
        dec, cert = _strictly_smaller_largest_root(phik, prev)
        intervals.append(cert)
        chain_ok = chain_ok and dec
        prev = phik
    return VerdictRecord(
        check="ring_subdivision",
        instance={"steps": steps},
        passed=start_exact and chain_ok,
        certificate={"largest_squared_is_5": start_exact,
                     "pairwise": intervals})


def _strictly_smaller_largest_root(qa: IntPoly, qb: IntPoly):
    """Certify max-root(qa) < max-root(qb); the certificate holds both
    isolating intervals at the first width 1/4, 1/16, ... that separates
    them."""
    a, b = RealRoot(qa, 1), RealRoot(qb, 1)
    smaller = a.compare(b) < 0
    return smaller, {"upper": [str(a.lo), str(a.hi)],
                     "lower": [str(b.lo), str(b.hi)]}


# ---------------------------------------------------------------------------
# non-integrality of the extended family


def s_nonintegral_scan(n: int, r_max: int) -> VerdictRecord:
    """Every extended caterpillar with n >= 2 groups and entries <= r_max
    must fail integrality; counterexamples are reported."""
    if n < 2:
        raise ValueError("the single-group family can be integral; need n >= 2")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative: a scan over no "
                         "instances checks nothing")
    bad = []
    total = 0
    for r in product(range(r_max + 1), repeat=n):
        total += 1
        if inertia_integrality(s_tree(list(r)))[1]:
            bad.append(list(r))
    return VerdictRecord(
        check="s_nonintegral_scan",
        instance={"n": n, "r_max": r_max, "instances": total},
        passed=not bad,
        certificate={"counterexamples": bad})


# ---------------------------------------------------------------------------
# multiplicity-raising witness


def _parter_scan(trees: Iterable[Tree]) -> tuple[int, list]:
    """Witness search for every integer eigenvalue of multiplicity at least
    two of each tree, in the order 0, -1, 1, -2, 2, ...; returns (pairs
    checked, misses).  A witness is a vertex whose deletion raises the
    multiplicity by one; the search stops at the first.  The multiplicity
    of k is the inertia count at k for k^2 <= n-1 (the trace bound).  T
    and every T - v are bipartite, so -k has the multiplicity of k in
    each: one search at k answers for both."""
    misses = []
    checked = 0
    for tree in trees:
        order, parent = tree.rooted_order()
        for k in range(isqrt(tree.n - 1) + 1):
            base = _signature(order, parent, k, 1)[1]
            if base >= 2:
                pair = (-k, k) if k else (0,)
                checked += len(pair)
                raised = (_signature(*without_vertex(order, parent, v),
                                     k, 1)[1] for v in range(tree.n))
                if base + 1 not in raised:
                    misses += [{"code": tree.code_str(), "eigenvalue": eig}
                               for eig in pair]
    return checked, misses


def parter_sweep(order_cap: int) -> VerdictRecord:
    """Exhaustive witness search over every tree up to the cap and every
    integer eigenvalue of multiplicity at least two."""
    if order_cap < 1:
        raise ValueError("order cap must be at least 1: a sweep over no "
                         "trees checks nothing")
    checked, misses = _parter_scan(tree for n in range(1, order_cap + 1)
                                   for tree in enumerate_free_trees(n))
    return VerdictRecord(
        check="parter_sweep",
        instance={"order_cap": order_cap, "pairs_checked": checked},
        passed=not misses,
        certificate={"absences": misses})


# ---------------------------------------------------------------------------
# nullity classification censuses


def nullity_classification(h: int, order_cap: int) -> list[CatalogRecord]:
    """All integral trees with the given nullity up to the order cap, through
    the search's filters (orders of the wrong parity are skipped)."""
    config = SearchConfig(max_order=order_cap, nullity=h, integral_only=True)
    return [kept_record(config, code, parent) for n in config.orders()
            for code, parent in kept_codes(config, n)]


def nullity_one_class_check(order_cap: int) -> VerdictRecord:
    """Trees with nullity 1 and no eigenvalue in (0,1) or (1,2) must be the
    one-vertex tree or a length-2 spider; the integral members of the spider
    branch are the ones whose leg count plus 3 is a perfect square.

    Nullity, inertia and integrality are decided on each canonical code's
    parent array, so no member's Tree or polynomial is built."""
    members = []
    violations = []
    integral_spiders = []
    config = SearchConfig(max_order=order_cap, nullity=1)
    for n in config.orders():
        order = range(n)
        for code, parent in kept_codes(config, n):
            below0, at0 = _signature(order, parent, 0, 1)
            below1, at1 = _signature(order, parent, 1, 1)
            if below1 - below0 - at0:  # eigenvalues in (0, 1)
                continue
            if _signature(order, parent, 2, 1)[0] - below1 - at1:  # in (1, 2)
                continue
            code_str = ",".join(map(str, code))
            members.append(code_str)
            if n == 1:
                continue
            p = (n - 5) // 2
            if n < 5 or code != s_tree([p]).canonical_code:
                violations.append(code_str)
            elif _integrality(order, parent)[1]:
                integral_spiders.append({"legs": p + 2, "order": n,
                                         "code": code_str})
    return VerdictRecord(
        check="nullity_one_class",
        instance={"order_cap": order_cap, "members": len(members)},
        passed=not violations,
        certificate={
            "member_codes": members,
            "violations": violations,
            "integral_spider_branch": integral_spiders,
        })


# ---------------------------------------------------------------------------
# the displayed polynomials in the nullity-3 argument


def _attach_cases(p: int, q: int, r: int):
    """Build the three case trees; returns (case_i, case_ii_a, case_ii_b,
    case_ii_latter, case_iii)."""
    def with_p2s(tree: Tree, v: int) -> Tree:
        return attach_pendants(tree, [(v, r)] if r else [])

    # case (i): new vertex joined to leg midpoints (vertex 0) of the
    # spiders s_tree([p]) and s_tree([q]), plus r pendant P2s; should
    # reproduce the three-group construction
    joined = join_trees(path(1), 0, s_tree([p]), 0, 1)
    case_i = with_p2s(join_trees(joined, 0, s_tree([q]), 0, 1), 0)

    # case (ii), former option: a new vertex on one leg midpoint of the
    # two-group tree (both sides, since the displayed polynomial is one-sided)
    base = s_tree([p, q])
    case_ii_a = grow(base, [0])
    case_ii_b = grow(base, [4])

    # case (ii), latter option: new vertex on the common neighbor of the two
    # hubs (label 2), carrying r pendant P2s
    case_ii_latter = with_p2s(grow(base, [2]), base.n)

    # case (iii): double star plus a new vertex at a degree-3 center,
    # carrying r pendant P2s
    case_iii = with_p2s(grow(path(1), [0, 0, 0, 1, 1, 0]), 6)
    return case_i, case_ii_a, case_ii_b, case_ii_latter, case_iii


def _displayed(core: IntPoly, e: int) -> IntPoly:
    """x^3 (x^2 - 1)^e core(x^2): the shape of each displayed nullity-3
    polynomial, from its core in the squared-eigenvalue variable y."""
    return IntPoly.monomial(3) * lift_square(
        ((_Y - IntPoly.one()) ** e * core).coeffs)


def _cubic_shifted_gap_poly(p: int, q: int) -> IntPoly:
    """(y-2)(y-p-3)(y-q-3) - 2y + q + 5."""
    return ((_Y - IntPoly.const(2)) * (_Y - IntPoly.const(p + 3))
            * (_Y - IntPoly.const(q + 3)) - IntPoly((-(q + 5), 2)))


def _g_poly(a: int, b: int, c: int) -> IntPoly:
    """(y-a)(y-b)(y-c) - 3y + a + b + c - 2."""
    return ((_Y - IntPoly.const(a)) * (_Y - IntPoly.const(b))
            * (_Y - IntPoly.const(c)) - IntPoly((-(a + b + c - 2), 3)))


def nullity3_case_polynomials(p: int, q: int, r: int,
                              rng: Optional[random.Random] = None) -> VerdictRecord:
    """Rebuild the proof-case trees explicitly and match their characteristic
    polynomials against the displayed factorizations, the evaluation
    identities of the cubic g, and the root-location claims."""
    if min(p, q, r) < 0:
        raise ValueError("parameters must be nonnegative")
    case_i, case_ii_a, case_ii_b, case_ii_latter, case_iii = _attach_cases(p, q, r)
    cert: dict = {}

    expect_i = s_tree([p, r, q])
    ok_i = case_i.canonical_code == expect_i.canonical_code
    cert["case_i_matches_three_group_tree"] = ok_i

    formula_pq = _displayed(_cubic_shifted_gap_poly(p, q), p + q)
    formula_qp = _displayed(_cubic_shifted_gap_poly(q, p), p + q)
    phi_a = char_poly(case_ii_a)
    phi_b = char_poly(case_ii_b)
    ok_ii_former = {phi_a, phi_b} == {formula_pq, formula_qp}
    cert["case_ii_former_matches"] = ok_ii_former
    cert["case_ii_former_attached_side"] = (
        "second_hub" if phi_b == formula_pq else "first_hub")

    gap_cubic = _cubic_shifted_gap_poly(p, q)
    ok_gap_ii = count_roots_open(gap_cubic, 1, 2).with_multiplicity >= 1
    cert["case_ii_former_gap_root"] = ok_gap_ii

    a, b, c = p + 3, q + 3, r + 2
    ok_ii_latter = char_poly(case_ii_latter) == _displayed(_g_poly(a, b, c),
                                                           a + b + c - 8)
    cert["case_ii_latter_matches"] = ok_ii_latter

    # the quartic x^4 - (r+6) x^2 + 4r + 6 of case (iii), in y = x^2: a
    # root x in (1, 2) is a root y in (1, 4)
    quadratic = IntPoly((4 * r + 6, -(r + 6), 1))
    ok_iii = char_poly(case_iii) == _displayed(quadratic, r)
    ok_gap_iii = count_roots_open(quadratic, 1, 4).with_multiplicity >= 1
    cert["case_iii_matches"] = ok_iii
    cert["case_iii_gap_root"] = ok_gap_iii

    ok_g = _g_identities_hold(rng or random.Random(0))
    cert["g_evaluation_identities"] = ok_g

    passed = all([ok_i, ok_ii_former, ok_gap_ii, ok_ii_latter, ok_iii,
                  ok_gap_iii, ok_g])
    return VerdictRecord(
        check="nullity3_case_polynomials",
        instance={"p": p, "q": q, "r": r},
        passed=passed,
        certificate=cert)


def _g_identities_hold(rng: random.Random) -> bool:
    for _ in range(_G_ROUNDS):
        a = rng.randrange(0, 40)
        b = rng.randrange(0, a + 1)
        c = rng.randrange(0, b + 1)
        g = _g_poly(a, b, c)
        if g.evaluate(a) != -(2 * a - b - c + 2):
            return False
        if g.evaluate(a + 1) != (a - b) * (a - c) - 4:
            return False
        if g.evaluate(a + 2) != 2 * (a - b) * (a - c) + 3 * (2 * a - b - c):
            return False
        # degenerate split: b = c = a - 2 factors completely
        if a >= 2:
            g2 = _g_poly(a, a - 2, a - 2)
            split = ((_Y - IntPoly.const(a + 1)) * (_Y - IntPoly.const(a - 2))
                     * (_Y - IntPoly.const(a - 3)))
            if g2 != split:
                return False
    return True


# ---------------------------------------------------------------------------
# factor-shape spot check for pendant bundles on the extended family


def pendant_bundle_shape_check(r: Sequence[int],
                               bundle: Sequence[int]) -> VerdictRecord:
    """Attach bundle[i] >= 1 pendant P2s at the i-th hub of the extended
    caterpillar and verify the factor shape: divisibility by
    (x^2-1)^(sum-k), a stable even cofactor across bundle growth, and at
    most k extra positive squared roots."""
    k = len(r)
    if len(bundle) != k or any(s < 1 for s in bundle):
        raise ValueError("bundle needs one count >= 1 per hub")
    base = s_tree(r)
    hubs = hub_vertices(r)
    cert: dict = {}

    def cofactor(counts):
        """Grown tree, its phi, and phi / (x^2-1)^(sum-k) or None."""
        grown = attach_pendants(base, list(zip(hubs, counts)))
        phi = char_poly(grown)
        try:
            return grown, phi, phi.exact_divide(
                IntPoly((-1, 0, 1)) ** (sum(counts) - k))
        except DivisibilityError:
            return grown, phi, None

    grown1, phi1, cof1 = cofactor(bundle)
    if cof1 is None:
        return VerdictRecord(
            check="pendant_bundle_shape",
            instance={"r": list(r), "bundle": list(bundle)},
            passed=False,
            certificate={"divisible": False, "char_poly": phi1.to_text()})
    cert["divisible"] = True

    # structural identity: growing the bundles is the same construction again
    merged = s_tree([ri + si for ri, si in zip(r, bundle)])
    cert["matches_merged_construction"] = (
        grown1.canonical_code == merged.canonical_code)

    _, q1 = even_part(cof1)
    _, q_base = even_part(char_poly(base))
    cert["even_cofactor_degree_gain"] = q1.degree - q_base.degree
    degree_ok = q1.degree == q_base.degree + k

    _, _, cof2 = cofactor([s + 1 for s in bundle])
    stable_ok = False
    extra_ok = False
    if cof2 is not None:
        _, q2 = even_part(cof2)
        g = poly_gcd(q1, q2)
        extra = q1.exact_divide(g)
        cert["stable_factor_degree"] = g.degree
        cert["extra_factor"] = extra.to_text()
        stable_ok = q1.degree - g.degree <= k
        # a constant extra factor has no roots, and degree 0
        positive = count_roots_above(extra, 0)
        extra_ok = positive.with_multiplicity == extra.degree
    passed = cert["matches_merged_construction"] and degree_ok and stable_ok and extra_ok
    return VerdictRecord(
        check="pendant_bundle_shape",
        instance={"r": list(r), "bundle": list(bundle)},
        passed=passed,
        certificate=cert)


# ---------------------------------------------------------------------------
# randomized instances and suite plumbing


def random_tree(rng: random.Random, n: int) -> Tree:
    """Uniformly shaped random labeled tree via a random parent sequence."""
    if n < 1:
        raise ValueError("order must be positive")
    return grow(path(1), [rng.randrange(0, v) for v in range(1, n)])


def _suite_eigencat(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    for n in (2, 3):
        cap = 6 if n == 2 else 3
        for r in product(range(cap + 1), repeat=n):
            yield eigencat_check(list(r))
    for _ in range(trials):
        n = rng.randrange(2, 5)
        yield eigencat_check([rng.randrange(0, 9) for _ in range(n)])


def _suite_rhocat(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    for n in range(1, 9):
        for j in range(1, n + 1):
            yield rhocat_check(n, j)
    yield ring_subdivision_check(6)


def _suite_inttr(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    yield s_nonintegral_scan(2, 8)
    yield s_nonintegral_scan(3, 4)


def _suite_parter(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    yield parter_sweep(10)
    checked, misses = _parter_scan(random_tree(rng, rng.randrange(4, 15))
                                   for _ in range(trials))
    yield VerdictRecord(
        check="parter_random",
        instance={"trials": trials, "pairs_checked": checked},
        passed=not misses,
        certificate={"absences": misses})


def join_formula_case(t1: Tree, v1: int, t2: Tree, v2: int, k: int) -> VerdictRecord:
    formula = join_formula(t1, v1, t2, v2, k)
    direct = char_poly(join_trees(t1, v1, t2, v2, k))
    return VerdictRecord(
        check="join_formula",
        instance={"t1": t1.code_str(), "v1": v1, "t2": t2.code_str(),
                  "v2": v2, "k": k},
        passed=formula == direct,
        certificate={"formula": formula.to_text(), "direct": direct.to_text()})


def _suite_join(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    for _ in range(trials):
        n1 = rng.randrange(1, 7)
        n2 = rng.randrange(1, 5)
        k = rng.randrange(1, 4)
        t1 = random_tree(rng, n1)
        t2 = random_tree(rng, n2)
        yield join_formula_case(t1, rng.randrange(n1), t2, rng.randrange(n2), k)
    for _ in range(max(1, trials // 2)):
        n1 = rng.randrange(1, 7)
        tree = random_tree(rng, n1)
        picks = rng.sample(range(n1), k=min(n1, rng.randrange(1, 3)))
        spec = [(v, rng.randrange(1, 5)) for v in picks]
        yield VerdictRecord(
            check="pendant_growth_bound",
            instance={"tree": tree.code_str(), "spec": spec},
            passed=all(courant_weyl_check(tree, spec)),
            certificate={})


def _suite_delp2(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    strip_viol = []
    grow_viol = []
    trees = 0
    for n in range(2, 10):
        for tree in enumerate_free_trees(n):
            report = pendant_report(tree)
            if report.total == 0:
                continue
            trees += 1
            if not strip_monotonicity_holds(tree):
                strip_viol.append(tree.code_str())
            for v, cnt in enumerate(report.per_vertex):
                if cnt and not pendant_growth_holds(tree, v):
                    grow_viol.append({"code": tree.code_str(), "vertex": v})
    yield VerdictRecord(
        check="pendant_strip_and_growth",
        instance={"order_cap": 9, "trees_with_pendants": trees},
        passed=not strip_viol and not grow_viol,
        certificate={"strip_violations": strip_viol,
                     "growth_violations": grow_viol})
    planted = []
    for _ in range(trials):
        base = random_tree(rng, rng.randrange(2, 9))
        v = rng.randrange(base.n)
        tree = attach_pendants(base, [(v, rng.randrange(1, 4))])
        ok = strip_monotonicity_holds(tree) and pendant_growth_holds(tree, v)
        planted.append(ok)
    yield VerdictRecord(
        check="pendant_planted_random",
        instance={"trials": trials},
        passed=all(planted),
        certificate={"failures": planted.count(False)})


def _suite_shift(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    failures = []
    for _ in range(trials):
        tree = random_tree(rng, rng.randrange(2, 9))
        side = rng.randrange(2)
        r = rng.randrange(0, 7)
        if not squared_shift_check(tree, side, r):
            failures.append({"code": tree.code_str(), "side": side, "r": r})
    yield VerdictRecord(
        check="squared_shift",
        instance={"trials": trials, "r_max": 6},
        passed=not failures,
        certificate={"failures": failures})


def _suite_nul1(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    yield nullity_one_class_check(13)


def _suite_nul2(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    for h, cap in ((2, 12), (3, 12)):
        records = nullity_classification(h, cap)
        yield VerdictRecord(
            check="nullity_classification",
            instance={"nullity": h, "order_cap": cap},
            passed=len(records) == 1,
            certificate={"found": [r.code for r in records]})
    for _ in range(max(1, trials // 10)):
        p, q, r = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 4)
        yield nullity3_case_polynomials(p, q, r, rng)


def _suite_eq3(rng: random.Random, trials: int) -> Iterator[VerdictRecord]:
    yield pendant_bundle_shape_check([1], [3])
    yield pendant_bundle_shape_check([0, 0], [2, 2])
    yield pendant_bundle_shape_check([1, 2], [1, 1])
    for _ in range(max(1, trials // 20)):
        k = rng.randrange(1, 4)
        r = [rng.randrange(0, 4) for _ in range(k)]
        yield pendant_bundle_shape_check(
            r, [rng.randrange(1, 4) for _ in range(k)])


SUITES: dict = {
    "eigencat": _suite_eigencat,
    "rhocat": _suite_rhocat,
    "inttr": _suite_inttr,
    "parter": _suite_parter,
    "join": _suite_join,
    "delp2": _suite_delp2,
    "cskvarithm": _suite_shift,
    "nul1": _suite_nul1,
    "nul2": _suite_nul2,
    "eq3": _suite_eq3,
}


def run_suite(name: str, seed: int = 0, trials: int = 50) -> list[VerdictRecord]:
    """Run one named suite (or all of them) deterministically for a seed.
    A trial count below 1 is refused: checks over no trials would report
    passes that checked nothing.

    This is the one loop that runs a suite: each record's wall_time_ms is
    the time since the previous record of its suite (or since the suite
    started), so a suite's times add up to its run time."""
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}: "
                         "a check over no trials checks nothing")
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key, seed, trials))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{['all'] + sorted(SUITES)}")
    rng = random.Random(f"{seed}:{name}")
    out = []
    start = time.perf_counter()
    for record in SUITES[name](rng, trials):
        now = time.perf_counter()
        record.wall_time_ms = (now - start) * 1000.0
        start = now
        out.append(record)
    return out
