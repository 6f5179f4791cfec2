"""Acceptance suite: every criterion runs at its stated scale and prints one
pass/fail line (echoed after the run via the conftest terminal hook)."""

import random
import sys
from itertools import product

from conftest import ACCEPTANCE_LINES
from oracles import free_tree_counts_by_recurrence, labeled_tree_codes
from treespectra.enumeration import FreeTreeEnumerator, enumerate_free_trees
from treespectra.polys import IntPoly, even_part
from treespectra.reduction import (pendant_report, pendant_growth_holds,
                                   strip_monotonicity_holds)
from treespectra.spectra import (char_poly, courant_weyl_check,
                                 join_formula, nullity_matching,
                                 squared_shift_check)
from treespectra.trees import join_trees, path, s_tree
from treespectra.verifier import (eigencat_check, nullity3_case_polynomials,
                                  nullity_classification,
                                  nullity_one_class_check, parter_sweep,
                                  random_tree, rhocat_check,
                                  ring_subdivision_check, s_nonintegral_scan)

X = IntPoly.x()


def report(number: int, ok: bool, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {verdict}: {text}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr)


def test_criterion_01_spider_char_poly_identity():
    ok = True
    for p in range(21):
        expected = (X * (X * X - IntPoly.const(p + 3))
                    * (X * X - IntPoly.one()) ** (p + 1))
        if char_poly(s_tree([p])) != expected:
            ok = False
            break
    report(1, ok, "length-2 spider char poly identity, p = 0..20, exact")
    assert ok


def test_criterion_02_nullity_two_unique():
    records = nullity_classification(2, 14)
    ok = (len(records) == 1 and records[0].order == 6
          and records[0].spectrum == {"-2": 1, "-1": 1, "0": 2, "1": 1, "2": 1})
    report(2, ok, "orders <= 14: unique integral tree with nullity 2 "
                  "(order 6, spectrum {±2, ±1, 0^2})")
    assert ok


def test_criterion_03_nullity_three_unique():
    records = nullity_classification(3, 14)
    ok = (len(records) == 1 and records[0].order == 5
          and records[0].code == "0,1,1,1,1")
    report(3, ok, "orders <= 14: unique integral tree with nullity 3 "
                  "(the order-5 star)")
    assert ok


def test_criterion_04_nullity_zero_and_one_censuses():
    zero = nullity_classification(0, 14)
    ok_zero = len(zero) == 1 and zero[0].code == path(2).code_str()
    one = nullity_classification(1, 17)
    # the one-vertex tree is integral with nullity 1 (spectrum {0}); the
    # nontrivial members are exactly the 7- and 17-vertex spiders
    expected = {path(1).code_str(), s_tree([1]).code_str(), s_tree([6]).code_str()}
    ok_one = {r.code for r in one} == expected
    nontrivial = {r.code for r in one if r.order >= 2}
    ok_one = ok_one and nontrivial == {s_tree([1]).code_str(),
                                       s_tree([6]).code_str()}
    branch = nullity_one_class_check(17).certificate["integral_spider_branch"]
    ok_branch = [b["order"] for b in branch] == [7, 17]
    ok = ok_zero and ok_one and ok_branch
    report(4, ok, "nullity-0 census <= 14 is the edge; integral nullity-1 "
                  "trees <= 17 are the 7- and 17-vertex spiders (plus the "
                  "trivial one-vertex tree)")
    assert ok


def test_criterion_05_extended_family_never_integral():
    two = s_nonintegral_scan(2, 12)
    three = s_nonintegral_scan(3, 6)
    ok = (two.passed and two.instance["instances"] == 169
          and three.passed and three.instance["instances"] == 343)
    report(5, ok, "no integral tree among the 169 two-group and 343 "
                  "three-group extended caterpillars")
    assert ok


def test_criterion_06_eigenvalue_bounds_exhaustive():
    ok = True
    for n in (2, 3):
        for r in product(range(7), repeat=n):
            if not eigencat_check(list(r)).passed:
                ok = False
                break
    report(6, ok, "s+2 < lambda_1^2 < s+4 and lambda_2^2 >= t for all "
                  "caterpillars with 2 or 3 groups, entries <= 6")
    assert ok


def test_criterion_07_ring_chain_and_rho_bound():
    ring = ring_subdivision_check(6)
    ok = ring.passed and ring.certificate["largest_squared_is_5"]
    for n in range(1, 9):
        for j in range(1, n + 1):
            if not rhocat_check(n, j).passed:
                ok = False
    report(7, ok, "cycle-with-pendants: largest eigenvalue exactly sqrt(5), "
                  "strictly decreasing under 6 subdivisions; single-pair "
                  "caterpillars up to 8 groups stay below 5")
    assert ok


def test_criterion_08_multiplicity_witnesses():
    sweep = parter_sweep(12)
    ok = sweep.passed and not sweep.certificate["absences"]
    report(8, ok, f"witness vertex found for every repeated integer "
                  f"eigenvalue over all trees up to order 12 "
                  f"({sweep.instance['pairs_checked']} pairs, zero absences)")
    assert ok


def test_criterion_09_nullity_cross_oracle():
    ok = True
    checked = 0
    for n in range(1, 13):
        for tree in enumerate_free_trees(n):
            checked += 1
            if even_part(char_poly(tree))[0] != nullity_matching(tree):
                ok = False
    report(9, ok, f"polynomial nullity equals matching nullity on all "
                  f"{checked} trees up to order 12")
    assert ok


def test_criterion_10_join_identity_random():
    rng = random.Random(20260501)
    ok = True
    for _ in range(500):
        n1 = rng.randrange(1, 9)
        n2 = rng.randrange(1, 6)
        k_max = max(1, (24 - n1) // n2)
        k = rng.randrange(1, min(4, k_max) + 1)
        t1, t2 = random_tree(rng, n1), random_tree(rng, n2)
        v1, v2 = rng.randrange(n1), rng.randrange(n2)
        if join_formula(t1, v1, t2, v2, k) != char_poly(
                join_trees(t1, v1, t2, v2, k)):
            ok = False
            break
    report(10, ok, "join formula equals the constructed tree's char poly on "
                   "500 seeded instances (combined order <= 24)")
    assert ok


def test_criterion_11_attachment_inequality_random():
    rng = random.Random(20260502)
    ok = True
    for _ in range(200):
        n = rng.randrange(1, 9)
        tree = random_tree(rng, n)
        k = min(n, rng.randrange(1, 4))
        picks = rng.sample(range(n), k=k)
        spec = [(v, rng.randrange(1, 7)) for v in picks]
        if not all(courant_weyl_check(tree, spec)):
            ok = False
            break
    report(11, ok, "lambda_i(T') >= sqrt(s_i+1) + lambda_n(T) certified on "
                   "200 seeded attachment instances")
    assert ok


def test_criterion_12_squared_shift_random():
    rng = random.Random(20260503)
    ok = True
    for _ in range(100):
        tree = random_tree(rng, rng.randrange(2, 9))
        if not squared_shift_check(tree, rng.randrange(2), rng.randrange(0, 7)):
            ok = False
            break
    report(12, ok, "squared eigenvalues shift by exactly r on 100 seeded "
                   "bipartite instances, r <= 6")
    assert ok


def test_criterion_13_pendant_strip_and_growth_exhaustive():
    ok = True
    for n in range(2, 11):
        for tree in enumerate_free_trees(n):
            rep = pendant_report(tree)
            if rep.total == 0:
                continue
            if not strip_monotonicity_holds(tree):
                ok = False
            for v, count in enumerate(rep.per_vertex):
                if count and not pendant_growth_holds(tree, v):
                    ok = False
    report(13, ok, "over all trees up to order 10: strips never increase the "
                   "(-1,1) eigenvalue count; eligible additions keep it and "
                   "raise the multiplicity of 1 by one")
    assert ok


def test_criterion_14_nullity3_proof_polynomials():
    rng = random.Random(20260504)
    ok = True
    for _ in range(50):
        p, q, r = rng.randrange(7), rng.randrange(7), rng.randrange(7)
        record = nullity3_case_polynomials(p, q, r, rng)
        if not record.passed:
            ok = False
            break
    report(14, ok, "proof-case trees match the displayed factorizations, "
                   "g identities and (1,2) root locations on 50 seeded "
                   "(p, q, r) triples")
    assert ok


def test_criterion_15_enumerator_against_oracles():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    recurrence = free_tree_counts_by_recurrence(12)
    ok = all(recurrence[n] == expected[n - 1] for n in range(1, 13))
    for n in range(1, 13):
        if sum(1 for _ in enumerate_free_trees(n)) != expected[n - 1]:
            ok = False
    for n in range(1, 9):
        if {t.canonical_code for t in enumerate_free_trees(n)} != labeled_tree_codes(n):
            ok = False
    full = [t.canonical_code for t in enumerate_free_trees(10)]
    for m in (2, 4):
        merged = []
        for i in range(m):
            merged.extend(FreeTreeEnumerator(10, (i, m)))
        if sorted(merged) != sorted(full) or len(merged) != len(set(merged)):
            ok = False
    report(15, ok, "free-tree counts match the labeled-tree dedup oracle and "
                   "the counting recurrence up to order 12; shard unions "
                   "reproduce the full stream")
    assert ok
