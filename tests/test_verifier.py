import inspect
import io
import itertools
import json
import random
import types

import pytest

from treespectra import spectra, verifier
from treespectra.enumeration import enumerate_free_trees
from treespectra.polys import DivisibilityError, IntPoly, count_roots_open
from treespectra.search import SearchConfig, run_search
from treespectra.spectra import TreeSpectrum, char_poly
from treespectra.trees import Tree, s_tree
from treespectra.verifier import (SUITES, eigencat_check,
                                  nullity3_case_polynomials,
                                  nullity_classification,
                                  nullity_one_class_check, parter_sweep,
                                  pendant_bundle_shape_check,
                                  random_tree, rhocat_check,
                                  ring_subdivision_check, run_suite,
                                  s_nonintegral_scan)


def double_star_2_2() -> Tree:
    return Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def search_records(h: int, order_cap: int, shard: tuple) -> list:
    """The records an integral search for nullity h writes, as dicts."""
    out = io.StringIO()
    run_search(SearchConfig(max_order=order_cap, nullity=h,
                            integral_only=True, shard=shard),
               out, io.StringIO())
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestEigenBounds:
    def test_figure_instance(self):
        v = eigencat_check([1, 3, 0, 2])
        assert v.passed and v.instance["s"] == 3 and v.instance["t"] == 2

    def test_bare_path(self):
        assert eigencat_check([0, 0]).passed

    def test_balanced(self):
        assert eigencat_check([5, 5]).passed

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            eigencat_check([4])

    def test_exhaustive_two_groups_small(self):
        for a in range(5):
            for b in range(5):
                assert eigencat_check([a, b]).passed


class TestRhoBound:
    def test_single_group(self):
        assert rhocat_check(1, 1).passed

    def test_interior(self):
        assert rhocat_check(4, 2).passed
        assert rhocat_check(8, 4).passed

    def test_all_positions(self):
        for n in range(1, 7):
            for j in range(1, n + 1):
                assert rhocat_check(n, j).passed

    def test_bad_position(self):
        with pytest.raises(ValueError):
            rhocat_check(3, 4)


class TestRingSubdivision:
    def test_chain(self):
        v = ring_subdivision_check(6)
        assert v.passed
        assert v.certificate["largest_squared_is_5"]
        assert len(v.certificate["pairwise"]) == 6

    def test_pairwise_endpoints_pinned(self):
        pairs = ring_subdivision_check(6).certificate["pairwise"]
        assert pairs == [
            {"lower": ["9153/4096", "4581/2048"],
             "upper": ["2275/1024", "18225/8192"]},
            {"lower": ["2275/1024", "18225/8192"],
             "upper": ["9065/4096", "36297/16384"]},
            {"lower": ["9065/4096", "36297/16384"],
             "upper": ["36173/16384", "18117/8192"]},
            {"lower": ["36173/16384", "18117/8192"],
             "upper": ["9021/4096", "72261/32768"]},
            {"lower": ["288951/131072", "72261/32768"],
             "upper": ["72159/32768", "288703/131072"]},
            {"lower": ["72159/32768", "36113/16384"],
             "upper": ["72049/32768", "36079/16384"]},
        ]

    def test_needs_step(self):
        with pytest.raises(ValueError):
            ring_subdivision_check(0)


class TestNonIntegralScan:
    def test_two_groups(self):
        v = s_nonintegral_scan(2, 6)
        assert v.passed and v.instance["instances"] == 49

    def test_three_groups(self):
        assert s_nonintegral_scan(3, 3).passed

    def test_single_group_rejected(self):
        # the one-group family has integral members, so the scan refuses it
        with pytest.raises(ValueError):
            s_nonintegral_scan(1, 5)
        assert TreeSpectrum.analyze(s_tree([1])).summary.is_integral

    def test_negative_r_max_refused(self):
        # range(r_max + 1) would be empty: a pass over no instances
        with pytest.raises(ValueError, match="r_max must be nonnegative"):
            s_nonintegral_scan(2, -1)


class TestParterWitness:
    def test_double_star_zero(self):
        # 0 is the one repeated eigenvalue of x^2 (x^2 - 1) (x^2 - 4)
        assert verifier._parter_scan([double_star_2_2()]) == (1, [])

    def test_sweep_small(self):
        v = parter_sweep(9)
        assert v.passed and not v.certificate["absences"]

    def test_builds_no_tree(self, monkeypatch):
        # every repeated integer eigenvalue of every tree up to order 10:
        # T - v is cut from T's parent array, never built
        trees = [t for n in range(1, 11) for t in enumerate_free_trees(n)]
        built = []
        build = Tree._build.__func__

        def recording(cls, *args, **kwargs):
            built.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Tree, "_build", classmethod(recording))
        checked, misses = verifier._parter_scan(trees)
        assert checked > 100 and misses == [] and built == []

    @pytest.mark.parametrize("order_cap", [0, -2])
    def test_sweep_below_order_one_refused(self, order_cap):
        with pytest.raises(ValueError, match="order cap must be at least 1"):
            parter_sweep(order_cap)


class TestNullityClassification:
    def test_nullity_zero(self):
        records = nullity_classification(0, 10)
        assert [r.code for r in records] == ["0,1"]

    def test_nullity_one_small(self):
        records = nullity_classification(1, 9)
        assert [(r.order, r.code) for r in records] == [
            (1, "0"), (7, s_tree([1]).code_str())]

    def test_nullity_two_and_three(self):
        assert [r.order for r in nullity_classification(2, 10)] == [6]
        assert [r.order for r in nullity_classification(3, 10)] == [5]

    def test_records_roundtrip(self):
        for record in nullity_classification(2, 8):
            assert record.roundtrip_ok()

    def test_shard_invariance(self):
        # the census is the union of the sharded searches
        full = {r.code for r in nullity_classification(8, 11)}
        assert full
        sharded = set()
        for i in range(3):
            sharded |= {data["code"] for data in search_records(8, 11, (i, 3))}
        assert sharded == full

    @pytest.mark.parametrize("shard", [(0, 1), (1, 2)])
    @pytest.mark.parametrize("h", range(4))
    def test_equals_search_records(self, h, shard):
        # a shard's search writes the census records it owns, in order
        searched = search_records(h, 11, shard)
        census = [json.loads(r.to_json())
                  for r in nullity_classification(h, 11)]
        for data in census:
            assert data.pop("shard") == "0/1"
        for data in searched:
            assert data.pop("shard") == f"{shard[0]}/{shard[1]}"
        owned = {data["code"] for data in searched}
        assert [data for data in census if data["code"] in owned] == searched


class TestNullityOneClass:
    def test_small_cap(self):
        v = nullity_one_class_check(9)
        assert v.passed
        assert v.certificate["member_codes"] == [
            "0", s_tree([1]).code_str(), s_tree([2]).code_str()]

    def test_cap_13_members(self):
        v = nullity_one_class_check(13)
        codes = v.certificate["member_codes"]
        assert s_tree([3]).code_str() in codes
        assert s_tree([4]).code_str() in codes

    def test_integral_branch_small(self):
        v = nullity_one_class_check(9)
        branch = v.certificate["integral_spider_branch"]
        assert [b["order"] for b in branch] == [7]


class TestNullity3Cases:
    def test_spec_zero_instance(self):
        x = IntPoly.x()
        expected_core = ((x * x - IntPoly.const(2))
                         * (x * x - IntPoly.const(3)) ** 2
                         - IntPoly((-5, 0, 2)))
        v = nullity3_case_polynomials(0, 0, 0)
        assert v.passed
        # the displayed core at p=q=0 really is the constructed polynomial
        base = s_tree([0, 0])
        grown = Tree(base.n + 1, base.edges() + [(0, base.n)])
        assert char_poly(grown) == IntPoly.monomial(3) * expected_core

    def test_various_instances(self):
        for p, q, r in ((1, 2, 1), (3, 0, 2), (2, 2, 0), (0, 4, 3)):
            v = nullity3_case_polynomials(p, q, r)
            assert v.passed, (p, q, r, v.certificate)

    def test_gap_quartic(self):
        for r in range(5):
            quartic = IntPoly((4 * r + 6, 0, -(r + 6), 0, 1))
            assert count_roots_open(quartic, 1, 2).with_multiplicity >= 1

    def test_negative_parameter(self):
        with pytest.raises(ValueError):
            nullity3_case_polynomials(-1, 0, 0)


class TestBundleShape:
    def test_single_hub(self):
        v = pendant_bundle_shape_check([1], [3])
        assert v.passed and v.certificate["even_cofactor_degree_gain"] == 1

    def test_two_hubs(self):
        assert pendant_bundle_shape_check([0, 0], [2, 2]).passed

    def test_unit_bundles(self):
        assert pendant_bundle_shape_check([2, 1], [1, 1]).passed

    def test_bad_bundle(self):
        with pytest.raises(ValueError):
            pendant_bundle_shape_check([1], [0])

    def test_indivisible_is_a_failed_verdict(self, monkeypatch):
        def refuse(self, divisor):
            raise DivisibilityError("planted")
        monkeypatch.setattr(IntPoly, "exact_divide", refuse)
        v = pendant_bundle_shape_check([1], [3])
        assert not v.passed and v.certificate["divisible"] is False

    def test_other_errors_propagate(self, monkeypatch):
        def broken(self, divisor):
            raise RuntimeError("planted")
        monkeypatch.setattr(IntPoly, "exact_divide", broken)
        with pytest.raises(RuntimeError, match="planted"):
            pendant_bundle_shape_check([1], [3])


class TestSuiteRunner:
    def test_deterministic_bytes(self):
        a = [r.to_json() for r in run_suite("eigencat", seed=7, trials=4)]
        b = [r.to_json() for r in run_suite("eigencat", seed=7, trials=4)]
        assert a == b

    def test_seed_changes_instances(self):
        a = [r.to_json() for r in run_suite("join", seed=1, trials=4)]
        b = [r.to_json() for r in run_suite("join", seed=2, trials=4)]
        assert a != b

    def test_all_suites_pass_briefly(self):
        for name in SUITES:
            records = run_suite(name, seed=3, trials=3)
            assert records and all(r.passed for r in records), name

    @pytest.mark.parametrize("name", ["inttr", "nul1", "parter"])
    def test_integrality_suites_build_no_polynomial(self, monkeypatch, name):
        # each reads integrality or multiplicities off inertia and prints no
        # polynomial
        calls = []

        def counting(tree):
            calls.append(tree.n)
            return char_poly(tree)

        monkeypatch.setattr(spectra, "char_poly", counting)
        monkeypatch.setattr(verifier, "char_poly", counting)
        records = run_suite(name, seed=0, trials=1)
        assert records and all(r.passed for r in records)
        assert calls == []

    def test_every_suite_yields_through_the_timing_loop(self):
        # a suite that returned its records would skip run_suite's clock
        for name, suite in SUITES.items():
            assert inspect.isgeneratorfunction(suite), name
        assert type(run_suite("rhocat", seed=0, trials=1)) is list
        assert type(run_suite("all", seed=0, trials=1)) is list

    def test_record_times_add_up_to_the_suite_time(self, monkeypatch):
        # on a clock that ticks 1 s per read, every record gets exactly the
        # time since the previous record, so no work goes untimed
        ticks = itertools.count()
        clock = types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
        monkeypatch.setattr(verifier, "time", clock)
        records = run_suite("nul2", seed=0, trials=1)
        assert len(records) == 3
        assert [r.wall_time_ms for r in records] == [1000.0] * 3

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nope")

    def test_zero_trials_refused(self):
        with pytest.raises(ValueError, match="at least 1, got 0"):
            run_suite("all", trials=0)

    def test_record_json_fields(self):
        record = run_suite("rhocat", seed=0, trials=1)[0]
        data = json.loads(record.to_json(with_timing=True))
        assert set(data) >= {"check", "instance", "verdict", "certificate"}
        assert data["verdict"] in ("pass", "fail")

    def test_random_tree_valid(self):
        rng = random.Random(0)
        for _ in range(20):
            t = random_tree(rng, rng.randrange(1, 20))
            assert t.n - 1 == len(t.edges())
