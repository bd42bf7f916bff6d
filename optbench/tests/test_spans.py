import time

import child
import spans
import traffic
from repro.parallel.batch import BatchItem, BatchOptimizer
from repro.volcano.plancache import PlanCache
from repro.volcano.search import VolcanoOptimizer


def test_untraced_run_calls_the_unwrapped_functions(monkeypatch):
    before = spans.original_functions()
    seen = []
    real_timed_phase = child.timed_phase

    def spy(workload, seconds, units, run_unit, measurement):
        def checked(unit, m):
            seen.append(spans.original_functions() == before)
            run_unit(unit, m)
        return real_timed_phase(workload, seconds, units, checked, measurement)

    monkeypatch.setattr(child, "timed_phase", spy)
    env = child.Env(seed=1, recorder=None)
    result = child.measure("cold_mix", 0.0, env, time.monotonic(), setup_only=False)
    assert result["completed"] >= 1000 and result["failed"] == 0
    assert seen and all(seen)


def test_installed_wraps_every_target_and_restores_them():
    before = spans.original_functions()
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        during = spans.original_functions()
        assert all(during[key] is not before[key] for key in before)
    after = spans.original_functions()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_carry_the_request(ruleset):
    recorder = spans.SpanRecorder()
    pool = traffic.HotPool(1, "hot_repeat")
    with spans.installed(recorder):
        cache = PlanCache()
        request = pool.request(ruleset.schema, 0)
        optimizer = VolcanoOptimizer(ruleset, request.catalog, plan_cache=cache)
        recorder.request = 7
        optimizer.optimize(request.tree)  # miss: search + store
        optimizer.optimize(pool.request(ruleset.schema, 0).tree)  # hit: copy
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[1], []).append(span)
    optimize_ids = {span[0] for span in by_name["search.optimize"]}
    for name in ("plancache.key", "plancache.lookup", "plancache.store"):
        assert all(span[4] in optimize_ids for span in by_name[name])
    assert len(by_name["search.optimize"]) == 2
    assert {span[5] for span in by_name["search.optimize"]} == {7}
    self_of = spans.self_times(recorder.spans)
    for span in by_name["search.optimize"]:
        assert 0 <= self_of[span[0]] <= span[3] - span[2]


def test_self_time_subtracts_same_process_children_only():
    recorded = [
        (1, "outer", 0.0, 10.0, None, 0, 100),
        (2, "inner", 1.0, 4.0, 1, 0, 100),
        (3, "inner", 5.0, 6.0, 1, 0, 100),
        (4, "remote", 2.0, 9.0, 1, 0, 200),
    ]
    assert spans.self_times(recorded) == {1: 6.0, 2: 3.0, 3: 1.0, 4: 7.0}


def test_forked_batch_workers_spill_their_spans(tmp_path, ruleset):
    recorder = spans.SpanRecorder(spill_dir=tmp_path)
    batch = next(traffic.batch_stream(ruleset.schema, 4))[:2]
    with spans.installed(recorder):
        optimizer = BatchOptimizer("repro.bench.harness:generated_ruleset", ("oodb",),
                                   mode="process", workers=2)
        recorder.request = 3
        optimizer.run([BatchItem(tree=r.tree, catalog=r.catalog) for r in batch])
        assert recorder.collect_spilled() > 0
    worker_optimizes = [s for s in recorder.spans
                        if s[1] == "search.optimize" and s[6] != recorder._pid]
    assert len(worker_optimizes) == 2
    run_ids = {s[0] for s in recorder.spans if s[1] == "parallel.run"}
    assert all(s[5] == 3 and s[4] in run_ids for s in worker_optimizes)
    assert not list(tmp_path.iterdir())
