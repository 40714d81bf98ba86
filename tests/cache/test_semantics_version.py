"""A cache filled by an older compiler must miss, not serve its results.

Every store entry carries ``COMPILER_SEMANTICS_VERSION``; bumping it makes
compile, measure, lint and service entries written before the bump miss.
Such an entry is healthy, just foreign: a plain miss, not a corrupt one.
"""

from __future__ import annotations

import pickle

from repro.cache import store
from repro.cache.store import CACHE_VERSION, CompileCache
from repro.pipeline.compiler import compile_many
from repro.service.protocol import parse_compile_request, resolve_compile_request

MESSAGE = {"type": "compile", "id": "r", "program": {"scenario": "scenario:call_web:3:0"}}


def _compile(cache):
    resolved = resolve_compile_request(parse_compile_request(MESSAGE))
    request = resolved.request
    compile_many(
        [(resolved.function, resolved.profile)],
        machine=request.target,
        cost_model=request.cost_model,
        techniques=list(request.techniques),
        maximal_regions=True,
        cache=cache,
    )


def _bump(monkeypatch):
    monkeypatch.setattr(
        store, "COMPILER_SEMANTICS_VERSION", store.COMPILER_SEMANTICS_VERSION + 1
    )


def test_semantics_bump_misses_a_filled_store(tmp_path, monkeypatch):
    _compile(CompileCache(tmp_path))
    warm = CompileCache(tmp_path)  # the same compiler hits
    _compile(warm)
    assert warm.stats.hits == 1

    _bump(monkeypatch)
    bumped = CompileCache(tmp_path)
    _compile(bumped)
    assert bumped.stats.hits == 0
    assert bumped.stats.misses == 1
    # The recompiled entry carries the new stamp and hits from then on.
    again = CompileCache(tmp_path)
    _compile(again)
    assert again.stats.hits == 1


KEY = "ab" + "0" * 62


def test_entries_without_the_current_stamp_miss(tmp_path, monkeypatch):
    CompileCache(tmp_path).put(KEY, {"report": 1})
    assert CompileCache(tmp_path).get(KEY) == {"report": 1}
    _bump(monkeypatch)
    cache = CompileCache(tmp_path)
    assert cache.get(KEY) is None
    assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
    assert cache._path(KEY).exists()  # another compiler's entry stays on disk


def test_unstamped_entry_misses(tmp_path):
    """An entry written before the stamp existed: right schema and key."""

    cache = CompileCache(tmp_path)
    path = cache._path(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(
        pickle.dumps({"schema": CACHE_VERSION, "key": KEY, "value": "old"})
    )
    assert cache.get(KEY) is None
    assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
    cache.put(KEY, "new")
    assert CompileCache(tmp_path).get(KEY) == "new"
