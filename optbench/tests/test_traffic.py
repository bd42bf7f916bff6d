from itertools import islice

import traffic
from repro.volcano.plancache import DEFAULT_MAX_ENTRIES, PlanCache
from repro.volcano.search import NO_HEURISTICS, VolcanoOptimizer


def _cold(schema, seed, rounds=1):
    return [(r.cls, r.position) for unit in islice(traffic.cold_rounds(schema, seed), rounds)
            for r in unit]


def _batches(schema, seed, count=3):
    return [[(r.cls, r.position) for r in batch]
            for batch in islice(traffic.batch_stream(schema, seed), count)]


def _churn(seed, blocks=3):
    return [[(s.kind, s.member) if isinstance(s, traffic.Write) else s for s in block]
            for block in islice(traffic.churn_blocks(seed, len(traffic.HOT_POOL)), blocks)]


def _hot(seed, count=2000):
    pool = traffic.HotPool(seed, "hot_repeat")
    slots = list(islice(traffic.hot_stream(seed, len(pool.members)), count))
    return [(cls, position) for cls, position, _ in pool.members], slots


def test_same_seed_same_stream_different_seed_different_stream(ruleset):
    schema = ruleset.schema
    for make in (lambda s: _cold(schema, s), lambda s: _batches(schema, s), _churn, _hot):
        assert make(1) == make(1)
        assert make(1) != make(2)


def test_cold_mix_round_composition(ruleset):
    rounds = list(islice(traffic.cold_rounds(ruleset.schema, 3), 12))
    assert all(len(unit) == 100 for unit in rounds)
    for unit in rounds:
        counts = {}
        for request in unit:
            counts[request.cls] = counts.get(request.cls, 0) + 1
        for cls, count in traffic.COLD_ROUND.items():
            assert counts[cls] == count
    rotated = {r.cls for unit in rounds for r in unit} - set(traffic.COLD_ROUND)
    assert rotated == {cls for group in traffic.COLD_ROTATING for cls in group}


def test_cold_mix_never_repeats_a_cache_key_within_a_run(ruleset):
    keys = set()
    total = 0
    for unit in islice(traffic.cold_rounds(ruleset.schema, 5), 25):
        for request in unit:
            keys.add(PlanCache.key_for(ruleset, NO_HEURISTICS, request.tree, ()))
            total += 1
    assert len(keys) == total


def test_hot_pool_fits_the_cache_and_covers_every_family(ruleset):
    pool = traffic.HotPool(7, "hot_repeat")
    assert len(pool.members) < DEFAULT_MAX_ENTRIES
    families = {traffic.split_class(cls)[0] for cls, _, _ in pool.members}
    assert families == {f"Q{i}" for i in range(1, 9)} | {traffic.STAR}
    keys = {PlanCache.key_for(ruleset, NO_HEURISTICS,
                              pool.request(ruleset.schema, m).tree, ())
            for m in range(len(pool.members))}
    assert len(keys) == len(pool.members)


def test_catalog_churn_writes_at_its_stated_rate():
    blocks = list(islice(traffic.churn_blocks(11, len(traffic.HOT_POOL)), 40))
    steps = [step for block in blocks for step in block]
    writes = [step for step in steps if isinstance(step, traffic.Write)]
    assert all(len(block) == traffic.WRITE_EVERY for block in blocks)
    assert len(writes) * traffic.WRITE_EVERY == len(steps)
    assert {write.kind for write in writes} == {"refresh", "ddl"}


def test_ddl_write_makes_entries_stale_without_changing_the_answer(ruleset):
    pool = traffic.HotPool(2, "catalog_churn")
    cache = PlanCache()
    request = pool.request(ruleset.schema, 0)
    optimizer = VolcanoOptimizer(ruleset, request.catalog, plan_cache=cache)
    cost = optimizer.optimize(request.tree).cost
    request.catalog.add(traffic.ddl_file(1))
    again = optimizer.optimize(pool.request(ruleset.schema, 0).tree)
    assert again.stats.plan_cache_misses == 1
    assert cache.stats()["invalidations"] == 1
    assert again.cost == cost


def test_indexed_twins_never_share_instance_numbers():
    assert traffic.instance_id("Q1/2", 5) != traffic.instance_id("Q2/2", 5)
    assert traffic.instance_id("Q1/2", 5) % 2 == 0
    assert traffic.instance_id("Q8/1", 5) % 2 == 1
