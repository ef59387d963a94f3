"""Plan-side encoding cache: correctness, eviction, invalidation, dedup."""

import numpy as np
import pytest

from repro.cluster import PAPER_CLUSTER
from repro.cluster.resources import ResourceProfile
from repro.data import build_imdb_catalog
from repro.encoding import PlanEncoder, plan_fingerprint
from repro.errors import EncodingError
from repro.plan import analyze, enumerate_plans
from repro.sql import parse
from repro.text import Word2VecConfig


@pytest.fixture(scope="module")
def catalog():
    return build_imdb_catalog(scale=0.05, seed=3)


@pytest.fixture(scope="module")
def plans(catalog):
    sqls = [
        "select count(*) from movie_keyword mk where mk.keyword_id < 25",
        """select count(*) from title t, movie_companies mc
           where t.id = mc.movie_id and mc.company_type_id > 1""",
        """select count(*) from title t, movie_companies mc, movie_keyword mk
           where t.id = mc.movie_id and t.id = mk.movie_id
           and mc.company_id = 4 and mk.keyword_id < 25""",
    ]
    out = []
    for sql in sqls:
        q = analyze(parse(sql), catalog)
        out.extend(enumerate_plans(q, catalog)[:3])
    return out


@pytest.fixture()
def encoder(plans):
    return PlanEncoder.fit(plans, word2vec_config=Word2VecConfig(dim=12, epochs=2))


class TestFingerprint:
    def test_stable_for_same_plan(self, plans):
        assert plan_fingerprint(plans[0]) == plan_fingerprint(plans[0])

    def test_distinct_plans_differ(self, plans):
        prints = {plan_fingerprint(p) for p in plans}
        assert len(prints) == len(plans)

    def test_estimate_change_changes_fingerprint(self, plans):
        plan = plans[0]
        before = plan_fingerprint(plan)
        node = plan.nodes()[0]
        old = node.est_rows
        try:
            node.est_rows = old + 1234.0
            assert plan_fingerprint(plan) != before
        finally:
            node.est_rows = old


class TestCacheCorrectness:
    def test_hit_returns_identical_features(self, encoder, plans):
        plan = plans[0]
        cold = encoder.encode(plan, PAPER_CLUSTER)
        assert encoder.cache_info().misses == 1
        warm = encoder.encode(plan, PAPER_CLUSTER)
        assert encoder.cache_info().hits == 1
        np.testing.assert_array_equal(cold.node_features, warm.node_features)
        np.testing.assert_array_equal(cold.child_mask, warm.child_mask)
        np.testing.assert_array_equal(cold.extras, warm.extras)
        # Plan-side arrays are shared (the point of the cache) …
        assert warm.node_features is cold.node_features
        # … and match a cache-bypassing fresh encode exactly.
        fresh = PlanEncoder(semantic=encoder.semantic,
                            structure=encoder.structure,
                            cache_size=0).encode(plan, PAPER_CLUSTER)
        np.testing.assert_array_equal(warm.node_features, fresh.node_features)
        np.testing.assert_array_equal(warm.extras, fresh.extras)

    def test_resource_side_not_cached(self, encoder, plans):
        plan = plans[0]
        a = encoder.encode(plan, PAPER_CLUSTER)
        b = encoder.encode(plan, ResourceProfile(executor_memory_gb=1.0))
        assert not np.array_equal(a.resources, b.resources)
        assert a.node_features is b.node_features

    def test_cached_arrays_are_readonly(self, encoder, plans):
        encoded = encoder.encode(plans[0], PAPER_CLUSTER)
        with pytest.raises(ValueError):
            encoded.node_features[0, 0] = 42.0

    def test_cache_disabled(self, plans, encoder):
        uncached = PlanEncoder(semantic=encoder.semantic,
                               structure=encoder.structure, cache_size=0)
        uncached.encode(plans[0], PAPER_CLUSTER)
        uncached.encode(plans[0], PAPER_CLUSTER)
        info = uncached.cache_info()
        assert info.hits == 0 and info.misses == 0 and info.size == 0

    def test_negative_cache_size_rejected(self, encoder):
        with pytest.raises(EncodingError):
            PlanEncoder(semantic=encoder.semantic, cache_size=-1)


class TestEviction:
    def test_eviction_at_capacity(self, plans, encoder):
        small = PlanEncoder(semantic=encoder.semantic,
                            structure=encoder.structure, cache_size=2)
        a, b, c = plans[:3]
        small.encode(a, PAPER_CLUSTER)
        small.encode(b, PAPER_CLUSTER)
        assert small.cache_info().size == 2
        small.encode(c, PAPER_CLUSTER)          # evicts a (LRU)
        assert small.cache_info().size == 2
        small.encode(c, PAPER_CLUSTER)
        assert small.cache_info().hits == 1
        misses_before = small.cache_info().misses
        small.encode(a, PAPER_CLUSTER)          # a was evicted → miss
        assert small.cache_info().misses == misses_before + 1

    def test_lru_order_refreshed_on_hit(self, plans, encoder):
        small = PlanEncoder(semantic=encoder.semantic,
                            structure=encoder.structure, cache_size=2)
        a, b, c = plans[:3]
        small.encode(a, PAPER_CLUSTER)
        small.encode(b, PAPER_CLUSTER)
        small.encode(a, PAPER_CLUSTER)          # a becomes most-recent
        small.encode(c, PAPER_CLUSTER)          # evicts b, not a
        misses_before = small.cache_info().misses
        small.encode(a, PAPER_CLUSTER)
        assert small.cache_info().misses == misses_before  # still cached


class TestInvalidation:
    def test_flipping_use_structure_invalidates(self, encoder, plans):
        plan = plans[0]
        structured = encoder.encode(plan, PAPER_CLUSTER)
        assert encoder.cache_info().size == 1
        encoder.use_structure = False
        assert encoder.cache_info().size == 0
        flat = encoder.encode(plan, PAPER_CLUSTER)
        assert flat.node_features.shape[1] < structured.node_features.shape[1]
        # And back: the cache must not serve the structure-less features.
        encoder.use_structure = True
        again = encoder.encode(plan, PAPER_CLUSTER)
        np.testing.assert_array_equal(again.node_features, structured.node_features)

    def test_flipping_use_onehot_invalidates(self, encoder, plans):
        plan = plans[0]
        w2v = encoder.encode(plan, PAPER_CLUSTER)
        encoder.use_onehot = True
        assert encoder.cache_info().size == 0
        onehot = encoder.encode(plan, PAPER_CLUSTER)
        assert onehot.node_features.shape != w2v.node_features.shape or \
            not np.array_equal(onehot.node_features, w2v.node_features)

    def test_same_value_assignment_keeps_cache(self, encoder, plans):
        encoder.encode(plans[0], PAPER_CLUSTER)
        encoder.use_structure = True            # no-op flip
        assert encoder.cache_info().size == 1

    def test_onehot_off_without_semantic_rejected(self):
        enc = PlanEncoder(use_onehot=True)
        with pytest.raises(EncodingError):
            enc.use_onehot = False

    def test_cache_clear(self, encoder, plans):
        encoder.encode(plans[0], PAPER_CLUSTER)
        encoder.cache_clear()
        info = encoder.cache_info()
        assert info.size == 0 and info.hits == 0 and info.misses == 0


class TestEncodeManyDedup:
    def test_grid_encodes_each_plan_once(self, encoder, plans):
        profiles = [PAPER_CLUSTER,
                    ResourceProfile(executor_memory_gb=1.0),
                    ResourceProfile(executors=4),
                    ResourceProfile(executor_cores=1)]
        grid = [(plan, prof) for prof in profiles for plan in plans[:3]]
        encoded = encoder.encode_many(grid)
        assert len(encoded) == 12
        info = encoder.cache_info()
        assert info.misses == 3            # one cold encode per distinct plan
        assert info.hits == 9

    def test_grid_looks_each_plan_up_once(self, encoder, plans):
        from repro import obs

        lookups = []

        class CountingCache(type(encoder._cache)):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        encoder._cache = CountingCache()
        profiles = [PAPER_CLUSTER, ResourceProfile(executors=4),
                    ResourceProfile(executor_cores=1)]
        grid = [(plan, prof) for prof in profiles for plan in plans[:4]]
        telemetry = obs.Telemetry.create()
        with obs.attached(telemetry):
            encoder.encode_many(grid)
            encoder.encode_many(grid)
        assert len(lookups) == 8  # 4 distinct plans, two calls
        # Repeats within a call are served by the one lookup but still
        # count as hits: 4 misses then 8 hits, then 12 hits.
        info = encoder.cache_info()
        assert (info.misses, info.hits) == (4, 20)
        assert telemetry.registry.counter("encoder.cache.hits").value == 20
        assert telemetry.registry.counter("encoder.cache.misses").value == 4

    def test_encode_many_matches_encode(self, encoder, plans):
        pairs = [(p, PAPER_CLUSTER) for p in plans[:3]]
        many = encoder.encode_many(pairs)
        for (plan, prof), enc in zip(pairs, many):
            single = encoder.encode(plan, prof)
            np.testing.assert_array_equal(single.node_features, enc.node_features)
            np.testing.assert_array_equal(single.resources, enc.resources)


class TestConcurrentAccess:
    """The LRU must stay consistent under concurrent bucket workers."""

    def test_concurrent_hits_and_evictions(self, plans):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        # capacity 2 with >2 distinct plans: every thread forces misses,
        # hits, move_to_end reorderings, and evictions concurrently.
        encoder = PlanEncoder.fit(
            plans, word2vec_config=Word2VecConfig(dim=12, epochs=2),
            cache_size=2)
        barrier = threading.Barrier(6)
        rounds = 30

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(rounds):
                encoder.encode(plans[int(rng.integers(0, len(plans)))],
                               PAPER_CLUSTER)

        with ThreadPoolExecutor(max_workers=6) as pool:
            for future in [pool.submit(worker, s) for s in range(6)]:
                future.result()

        info = encoder.cache_info()
        # Counter conservation: every lookup is exactly a hit or a miss,
        # every miss either evicted something or grew the cache.
        assert info.hits + info.misses == 6 * rounds
        assert info.size <= info.capacity == 2
        assert info.evictions == info.misses - info.size
        assert info.hits > 0 and info.misses > 0 and info.evictions > 0

    def test_concurrent_results_identical(self, plans):
        from concurrent.futures import ThreadPoolExecutor

        encoder = PlanEncoder.fit(
            plans, word2vec_config=Word2VecConfig(dim=12, epochs=2),
            cache_size=2)
        reference = [encoder.encode(p, PAPER_CLUSTER).node_features.copy()
                     for p in plans]

        def worker(_):
            return [encoder.encode(p, PAPER_CLUSTER).node_features
                    for p in plans]

        with ThreadPoolExecutor(max_workers=4) as pool:
            for out in pool.map(worker, range(8)):
                for got, want in zip(out, reference):
                    np.testing.assert_array_equal(got, want)


class TestEncoderDtype:
    def test_default_is_float64(self, encoder, plans):
        enc = encoder.encode(plans[0], PAPER_CLUSTER)
        assert enc.node_features.dtype == np.float64
        assert enc.resources.dtype == np.float64
        assert enc.extras.dtype == np.float64


#: A 24-profile grid (executors × cores × memory), the advisor's shape.
GRID_24 = [ResourceProfile(executors=e, executor_cores=c, executor_memory_gb=m)
           for e in (1, 2, 3, 4) for c in (1, 2) for m in (1.0, 2.0, 4.0)]


@pytest.fixture(scope="module")
def workload_plans(catalog):
    """Every candidate plan of a generated multi-join workload."""
    from repro.errors import ReproError
    from repro.workload.generator import QueryGenerator, WorkloadConfig

    generator = QueryGenerator(catalog, WorkloadConfig(min_joins=1, max_joins=3),
                               seed=11)
    out = []
    for sql in generator.generate(8):
        try:
            out.extend(enumerate_plans(analyze(parse(sql), catalog), catalog))
        except ReproError:
            continue
    assert len(out) >= 16
    return out


@pytest.fixture(scope="module")
def workload_encoder(workload_plans):
    return PlanEncoder.fit(workload_plans,
                           word2vec_config=Word2VecConfig(dim=12, epochs=2))


def _node_texts(plans):
    return {tuple(node.statements()) for plan in plans for node in plan.nodes()}


class TestDeduplicatedColdEncode:
    """A cold ``encode_many`` embeds each distinct node text once per call,
    and its features are bit-identical to a per-node computation."""

    @staticmethod
    def _per_node(encoder, plan):
        rows = np.stack([encoder.semantic.encode_node(node)
                         for node in plan.nodes()])
        if encoder.use_structure:
            rows = np.concatenate([rows, encoder.structure.encode_plan(plan)],
                                  axis=1)
        return rows.astype(np.float64)

    @pytest.mark.parametrize("use_structure", [True, False])
    def test_grid_matches_per_node_encode_bit_for_bit(
            self, workload_plans, workload_encoder, use_structure):
        encoder = PlanEncoder(semantic=workload_encoder.semantic,
                              structure=workload_encoder.structure,
                              use_structure=use_structure)
        profiles = GRID_24[:4]
        grid = [(plan, prof) for prof in profiles for plan in workload_plans]
        expected = {id(plan): self._per_node(encoder, plan)
                    for plan in workload_plans}
        for phase in ("cold", "warm"):
            encoded = encoder.encode_many(grid)
            for (plan, prof), enc in zip(grid, encoded):
                assert enc.node_features.dtype == np.float64
                assert np.array_equal(enc.node_features, expected[id(plan)]), \
                    (phase, plan.label)
                assert np.array_equal(enc.resources,
                                      prof.as_features())
        info = encoder.cache_info()
        assert (info.misses, info.size) == (len(workload_plans),
                                            len(workload_plans))

    def test_each_distinct_node_text_tokenised_once(
            self, workload_plans, workload_encoder, monkeypatch):
        import repro.encoding.node_semantic as node_semantic
        from collections import Counter

        calls = Counter()
        tokenize = node_semantic.tokenize_statements

        def counting(statements):
            calls[tuple(statements)] += 1
            return tokenize(statements)

        monkeypatch.setattr(node_semantic, "tokenize_statements", counting)
        encoder = PlanEncoder(semantic=workload_encoder.semantic,
                              structure=workload_encoder.structure)
        grid = [(plan, prof) for prof in GRID_24 for plan in workload_plans]
        encoder.encode_many(grid)
        texts = _node_texts(workload_plans)
        assert sum(plan.num_nodes for plan in workload_plans) > len(texts)
        assert set(calls) == texts
        assert set(calls.values()) == {1}
        # The memo lives for one call only: a second cold call embeds again.
        calls.clear()
        encoder.cache_clear()
        encoder.encode_many(grid)
        assert set(calls) == texts and set(calls.values()) == {1}
