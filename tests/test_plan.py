"""Tests for repro.plan: analyzer, logical plans, optimizer, cardinality,
physical plans, and the enumerator."""

import numpy as np
import pytest

from repro.data import build_imdb_catalog
from repro.errors import AnalysisError, PlanError
from repro.plan import (
    AnalyzedQuery,
    BroadcastHashJoin,
    CardinalityEstimator,
    EnumeratorConfig,
    FileScan,
    FilterExec,
    HashAggregate,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalScan,
    PhysicalPlan,
    SortMergeJoin,
    analyze,
    annotate_estimates,
    build_logical_plan,
    default_plan,
    enumerate_plans,
    optimize,
    required_columns,
)
from repro.plan.optimizer import PruneColumns, PushDownFilters
from repro.sql import parse

THREE_TABLE = """SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
WHERE t.id = mc.movie_id AND t.id = mk.movie_id
AND mc.company_id = 4 AND mk.keyword_id < 25"""


@pytest.fixture(scope="module")
def catalog():
    return build_imdb_catalog(scale=0.05, seed=3)


@pytest.fixture(scope="module")
def three_table_query(catalog):
    return analyze(parse(THREE_TABLE), catalog)


class TestAnalyzer:
    def test_unknown_table(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select count(*) from ghost_table"), catalog)

    def test_unknown_column(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select count(*) from title t where t.ghost = 1"), catalog)

    def test_unknown_alias_in_predicate(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select count(*) from title t where x.id = 1"), catalog)

    def test_bare_column_qualified(self, catalog):
        q = analyze(parse("select count(*) from title where production_year > 2000"), catalog)
        assert q.statement.filters[0].column.table == "title"

    def test_ambiguous_bare_column(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select count(*) from title t, keyword k where id > 3"), catalog)

    def test_type_mismatch_numeric_vs_string(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select count(*) from title t where t.production_year = 'x'"), catalog)

    def test_like_on_numeric_rejected(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select count(*) from title t where t.id like 'a%'"), catalog)

    def test_sum_on_string_rejected(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select sum(t.title) from title t"), catalog)

    def test_self_join_condition_rejected(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select count(*) from title t where t.id = t.kind_id"), catalog)

    def test_non_grouped_column_rejected(self, catalog):
        with pytest.raises(AnalysisError):
            analyze(parse("select t.kind_id, count(*) from title t"), catalog)

    def test_grouped_column_allowed(self, catalog):
        q = analyze(parse("select t.kind_id, count(*) from title t group by t.kind_id"), catalog)
        assert q.statement.group_by

    def test_alias_map(self, three_table_query):
        assert three_table_query.table_of("mc") == "movie_companies"
        with pytest.raises(AnalysisError):
            three_table_query.table_of("nope")


class TestLogicalPlan:
    def test_build_shape_single_table(self, catalog):
        q = analyze(parse("select count(*) from title t where t.id < 10"), catalog)
        plan = build_logical_plan(q)
        assert isinstance(plan, LogicalAggregate)
        assert isinstance(plan.child, LogicalFilter)
        assert isinstance(plan.child.child, LogicalScan)

    def test_build_joins_left_deep(self, three_table_query):
        plan = build_logical_plan(three_table_query)
        join = plan.child
        assert isinstance(join, LogicalJoin)
        assert isinstance(join.left, LogicalJoin)

    def test_tables_propagate(self, three_table_query):
        plan = build_logical_plan(three_table_query)
        assert plan.tables() == {"t", "mc", "mk"}

    def test_describe_contains_operators(self, three_table_query):
        text = build_logical_plan(three_table_query).describe()
        assert "Join" in text and "Scan" in text and "Aggregate" in text

    def test_optimize_prunes_columns(self, three_table_query):
        plan = optimize(build_logical_plan(three_table_query))

        def scans(node):
            if isinstance(node, LogicalScan):
                yield node
            for child in node.children:
                yield from scans(child)

        for scan in scans(plan):
            assert scan.columns, f"scan {scan.alias} has no pruned column list"
            if scan.alias == "mk":
                assert set(scan.columns) == {"movie_id", "keyword_id"}

    def test_pushdown_moves_filter_below_join(self, catalog):
        # Build an artificial plan with the filter above the join.
        q = analyze(parse(
            "select count(*) from title t, movie_keyword mk "
            "where t.id = mk.movie_id and mk.keyword_id < 5"), catalog)
        stmt = q.statement
        join = LogicalJoin(
            left=LogicalScan("title", "t"),
            right=LogicalScan("movie_keyword", "mk"),
            condition=stmt.joins[0],
        )
        lifted = LogicalFilter(child=join, predicates=list(stmt.filters))
        pushed = PushDownFilters().apply(lifted)
        assert isinstance(pushed, LogicalJoin)
        assert isinstance(pushed.right, LogicalFilter)


class TestCardinality:
    def test_scan_cardinality_close_to_truth(self, catalog):
        q = analyze(parse("select count(*) from title t where t.kind_id = 1"), catalog)
        est = CardinalityEstimator(catalog, q.alias_to_table)
        estimate = est.scan_cardinality("t", q.statement.filters)
        truth = (catalog.table("title").column("kind_id") == 1).sum()
        assert truth * 0.5 <= estimate <= truth * 2.0

    def test_range_cardinality_reasonable(self, catalog):
        q = analyze(parse(
            "select count(*) from title t where t.production_year > 1990"), catalog)
        est = CardinalityEstimator(catalog, q.alias_to_table)
        estimate = est.scan_cardinality("t", q.statement.filters)
        years = catalog.table("title").column("production_year")
        truth = (years > 1990).sum()
        assert truth * 0.5 <= estimate <= truth * 2.0

    def test_join_cardinality_fk_pk(self, catalog):
        q = analyze(parse(
            "select count(*) from title t, movie_keyword mk where t.id = mk.movie_id"),
            catalog)
        est = CardinalityEstimator(catalog, q.alias_to_table)
        left = est.table_rows("mk")
        right = est.table_rows("t")
        joined = est.join_cardinality(left, right, q.statement.joins[0])
        # FK-PK join output should be about the FK side's row count.
        assert left * 0.3 <= joined <= left * 3.0

    def test_conjunction_independence(self, catalog):
        q = analyze(parse(
            "select count(*) from title t where t.kind_id = 1 and t.production_year > 2000"),
            catalog)
        est = CardinalityEstimator(catalog, q.alias_to_table)
        sel = est.conjunction_selectivity(q.statement.filters)
        s1 = est.predicate_selectivity(q.statement.filters[0])
        s2 = est.predicate_selectivity(q.statement.filters[1])
        assert sel == pytest.approx(s1 * s2)

    def test_aggregate_cardinality_global(self, catalog):
        q = analyze(parse("select count(*) from title t"), catalog)
        est = CardinalityEstimator(catalog, q.alias_to_table)
        assert est.aggregate_cardinality(1000.0, []) == 1.0

    def test_aggregate_cardinality_grouped_bounded(self, catalog):
        q = analyze(parse(
            "select t.kind_id, count(*) from title t group by t.kind_id"), catalog)
        est = CardinalityEstimator(catalog, q.alias_to_table)
        groups = est.aggregate_cardinality(50.0, q.statement.group_by)
        assert groups <= 50.0

    def test_unqualified_ref_raises(self, catalog):
        from repro.sql.ast import ColumnRef
        est = CardinalityEstimator(catalog, {"t": "title"})
        with pytest.raises(PlanError):
            est.column_stats(ColumnRef("id"))


class TestPhysicalPlan:
    def test_nodes_postorder_children_first(self, three_table_query, catalog):
        plan = enumerate_plans(three_table_query, catalog)[0]
        index = plan.node_index()
        for child_idx, parent_idx in plan.edges():
            assert child_idx < parent_idx

    def test_signature_distinguishes_plans(self, three_table_query, catalog):
        plans = enumerate_plans(three_table_query, catalog)
        sigs = {p.signature() for p in plans}
        assert len(sigs) == len(plans)

    def test_operator_counts(self, three_table_query, catalog):
        plan = enumerate_plans(three_table_query, catalog)[0]
        counts = plan.operator_counts()
        assert counts["FileScan"] == 3
        assert counts.get("HashAggregate", 0) == 2

    def test_statements_include_predicates(self, three_table_query, catalog):
        plan = enumerate_plans(three_table_query, catalog)[0]
        all_statements = "\n".join(
            stmt for node in plan.nodes() for stmt in node.statements())
        assert "keyword_id" in all_statements
        assert "FileScan" in all_statements

    def test_invalid_aggregate_mode(self):
        scan = FileScan(table="t", alias="t", columns=["a"])
        with pytest.raises(PlanError):
            HashAggregate(child=scan, mode="bogus")

    def test_describe_renders_tree(self, three_table_query, catalog):
        plan = enumerate_plans(three_table_query, catalog)[0]
        text = plan.describe()
        assert text.count("FileScan") == 3


class TestFrozenPlan:
    """Freezing memoizes a plan's facts and locks what they depend on."""

    @staticmethod
    def _twins(query, catalog):
        """The same candidate plans, enumerated twice: one frozen copy."""
        frozen = [p.freeze() for p in enumerate_plans(query, catalog)]
        return frozen, enumerate_plans(query, catalog)

    def test_facts_match_an_unfrozen_twin(self, three_table_query, catalog):
        from repro.encoding import plan_fingerprint

        frozen, fresh = self._twins(three_table_query, catalog)
        assert len(frozen) == len(fresh) > 1
        for plan, twin in zip(frozen, fresh):
            assert plan.frozen and not twin.frozen
            assert plan_fingerprint(plan) == plan_fingerprint(twin)
            assert plan.fingerprint() == twin.fingerprint()
            assert plan.edges() == twin.edges()
            assert plan.num_nodes == twin.num_nodes
            assert [n.statements() for n in plan.nodes()] == \
                [n.statements() for n in twin.nodes()]
            assert [(n.est_rows, n.est_bytes) for n in plan.nodes()] == \
                [(n.est_rows, n.est_bytes) for n in twin.nodes()]
            assert plan.estimates_finite() and twin.estimates_finite()
            assert plan.signature() == twin.signature()

    def test_freeze_is_idempotent_and_returns_the_plan(self, three_table_query,
                                                       catalog):
        plan = enumerate_plans(three_table_query, catalog)[0]
        assert plan.freeze() is plan
        nodes = plan.nodes()
        assert plan.freeze() is plan
        assert plan.nodes() == nodes
        # Callers get copies: editing one cannot corrupt the memo.
        nodes.clear()
        plan.edges().clear()
        assert plan.num_nodes > 0 and plan.edges()

    def test_estimate_writes_raise_and_keep_facts(self, three_table_query,
                                                  catalog):
        plan = enumerate_plans(three_table_query, catalog)[0].freeze()
        before = (plan.fingerprint(), plan.edges(), plan.num_nodes)
        node = plan.nodes()[0]
        old = (node.est_rows, node.est_bytes)
        for field_name in ("est_rows", "est_bytes"):
            with pytest.raises(PlanError, match="frozen"):
                setattr(node, field_name, 1234.0)
        assert (node.est_rows, node.est_bytes) == old
        assert (plan.fingerprint(), plan.edges(), plan.num_nodes) == before

    def test_structural_writes_raise(self, three_table_query, catalog):
        plan = enumerate_plans(three_table_query, catalog)[0].freeze()
        scan = next(n for n in plan.nodes() if isinstance(n, FileScan))
        with pytest.raises(PlanError):
            scan.columns = ["id"]
        with pytest.raises(PlanError):
            plan.root.child = scan
        with pytest.raises(PlanError):
            plan.root = scan

    def test_observations_stay_writable(self, three_table_query, catalog):
        plan = enumerate_plans(three_table_query, catalog)[0].freeze()
        fingerprint = plan.fingerprint()
        for node in plan.nodes():
            node.obs_rows = 42.0
            node.obs_bytes = 336.0
        assert all(n.rows == 42.0 and n.bytes == 336.0 for n in plan.nodes())
        assert plan.fingerprint() == fingerprint

    def test_non_finite_estimate_is_a_fact(self, three_table_query, catalog):
        plan = enumerate_plans(three_table_query, catalog)[0]
        plan.nodes()[0].est_rows = float("nan")
        assert not plan.estimates_finite()
        plan.freeze()
        assert not plan.estimates_finite()
        assert plan.fingerprint()


class TestEnumerator:
    def test_single_table_has_two_plans(self, catalog):
        q = analyze(parse(
            "select count(*) from movie_keyword mk where mk.keyword_id < 25"), catalog)
        plans = enumerate_plans(q, catalog)
        assert len(plans) == 2
        ops0 = plans[0].operator_counts()
        ops1 = plans[1].operator_counts()
        assert "Filter" not in ops0
        assert ops1.get("Filter") == 1

    def test_multi_join_produces_smj_and_bhj_variants(self, three_table_query, catalog):
        plans = enumerate_plans(three_table_query, catalog)
        has_smj = any(
            isinstance(n, SortMergeJoin) for p in plans for n in p.nodes())
        has_bhj = any(
            isinstance(n, BroadcastHashJoin) for p in plans for n in p.nodes())
        assert has_smj and has_bhj

    def test_max_plans_respected(self, three_table_query, catalog):
        plans = enumerate_plans(three_table_query, catalog,
                                EnumeratorConfig(max_plans=3))
        assert len(plans) == 3

    def test_estimates_annotated(self, three_table_query, catalog):
        for plan in enumerate_plans(three_table_query, catalog):
            for node in plan.nodes():
                assert node.est_rows >= 0.0
                assert node.est_bytes >= 0.0

    def test_smj_has_exchange_and_sort_below(self, three_table_query, catalog):
        plans = enumerate_plans(three_table_query, catalog)
        smj_plan = next(p for p in plans
                        if any(isinstance(n, SortMergeJoin) for n in p.nodes()))
        nodes = smj_plan.nodes()
        index = smj_plan.node_index()
        for node in nodes:
            if isinstance(node, SortMergeJoin):
                for child in node.children:
                    assert child.op_name == "Sort"

    def test_default_plan_is_first(self, three_table_query, catalog):
        plans = enumerate_plans(three_table_query, catalog)
        default = default_plan(three_table_query, catalog)
        assert default.signature() == plans[0].signature()

    def test_broadcast_threshold_zero_forces_smj(self, three_table_query, catalog):
        plan = default_plan(three_table_query, catalog,
                            EnumeratorConfig(broadcast_threshold=0.0))
        joins = [n for n in plan.nodes()
                 if isinstance(n, (SortMergeJoin, BroadcastHashJoin))]
        assert all(isinstance(j, SortMergeJoin) for j in joins)

    def test_huge_threshold_forces_bhj(self, three_table_query, catalog):
        plan = default_plan(three_table_query, catalog,
                            EnumeratorConfig(broadcast_threshold=1e18))
        joins = [n for n in plan.nodes()
                 if isinstance(n, (SortMergeJoin, BroadcastHashJoin))]
        assert all(isinstance(j, BroadcastHashJoin) for j in joins)

    def test_required_columns(self, three_table_query):
        cols = required_columns(three_table_query)
        assert set(cols["mk"]) == {"movie_id", "keyword_id"}
        assert set(cols["t"]) == {"id"}

    def test_five_join_query_enumerates(self, catalog):
        sql = """select count(*) from title t, movie_companies mc, movie_keyword mk,
                 movie_info mi, cast_info ci
                 where t.id = mc.movie_id and t.id = mk.movie_id
                 and t.id = mi.movie_id and t.id = ci.movie_id
                 and mk.keyword_id < 10"""
        q = analyze(parse(sql), catalog)
        plans = enumerate_plans(q, catalog)
        assert len(plans) >= 4
        for plan in plans:
            assert plan.operator_counts()["FileScan"] == 5
