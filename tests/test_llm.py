import json
import logging
import multiprocessing
import sys
import threading

import pytest

from claimdecomp.llm import (CachingClient, CompletionError, CompletionRequest,
                             CompletionResponse, ContextLengthError,
                             HttpCompletionClient, MockCompletionClient,
                             ResponseCache, cache_key)


def req(prompt="p", **kw):
    kw.setdefault("model", "m")
    return CompletionRequest(prompt=prompt, **kw)


class CountingClient:
    model = "counting"

    def __init__(self, text="out"):
        self.calls = 0
        self.text = text

    def complete(self, request):
        self.calls += 1
        return CompletionResponse(text=self.text)


def _put_one_key(cache_dir: str, writer: int, threads: int, rounds: int) -> None:
    """Worker process: ``threads`` threads each put one shared key ``rounds``
    times. Exits non-zero if any put raised."""
    cache = ResponseCache(cache_dir)
    errors = []

    def put(thread: int) -> None:
        for i in range(rounds):
            try:
                cache.put(req("shared"), CompletionResponse(text=f"w{writer}t{thread}r{i}"))
            except Exception as exc:
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=put, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise SystemExit(f"{len(errors)} puts raised, first: {errors[0]!r}")


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionRequest(model="m", prompt="p", max_tokens=0)
        with pytest.raises(ValueError):
            CompletionRequest(model="m", prompt="p", temperature=-0.1)


class TestMockClient:
    def test_table_hit(self):
        client = MockCompletionClient(table={"p": "out"})
        assert client.complete(req("p")).text == "out"

    def test_miss_returns_default(self):
        client = MockCompletionClient(default="")
        assert client.complete(req("anything")).text == ""

    def test_first_matching_substring_rule_wins(self):
        client = MockCompletionClient(rules=[("abc", "first"), ("b", "second")])
        assert client.complete(req("xxabcxx")).text == "first"
        assert client.complete(req("xxbxx")).text == "second"

    def test_length_error(self):
        client = MockCompletionClient(length_error_substrings=("HUGE",))
        with pytest.raises(ContextLengthError):
            client.complete(req("a HUGE prompt"))


class TestCache:
    def test_key_covers_all_fields(self):
        base = req("p", max_tokens=10, temperature=0.5)
        variants = [req("q", max_tokens=10, temperature=0.5),
                    req("p", max_tokens=11, temperature=0.5),
                    req("p", max_tokens=10, temperature=0.6),
                    CompletionRequest(model="m2", prompt="p", max_tokens=10,
                                      temperature=0.5)]
        keys = {cache_key(v) for v in variants}
        assert cache_key(base) not in keys
        assert len(keys) == 4

    def test_put_get_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        request = req("p")
        assert cache.get(request) is None
        cache.put(request, CompletionResponse(text="out", finish_reason="stop"))
        hit = cache.get(request)
        assert hit == CompletionResponse(text="out", finish_reason="stop")

    def test_second_identical_request_single_network_call(self, tmp_path):
        inner = CountingClient()
        client = CachingClient(inner, tmp_path)
        first = client.complete(req("p"))
        second = client.complete(req("p"))
        assert first == second
        assert inner.calls == 1

    def test_warm_cache_zero_calls(self, tmp_path):
        inner = CountingClient()
        client = CachingClient(inner, tmp_path)
        prompts = [f"prompt {i}" for i in range(5)]
        for p in prompts:
            client.complete(req(p))
        assert inner.calls == 5
        fresh_inner = CountingClient()
        warm = CachingClient(fresh_inner, tmp_path)
        for p in prompts:
            warm.complete(req(p))
        assert fresh_inner.calls == 0

    def test_cache_only_raises_on_miss(self, tmp_path):
        client = CachingClient(CountingClient(), tmp_path, cache_only=True)
        with pytest.raises(CompletionError, match="cache-only"):
            client.complete(req("never seen"))

    def test_concurrent_writes(self, tmp_path):
        cache = ResponseCache(tmp_path)

        def put(i):
            cache.put(req(f"p{i % 3}"), CompletionResponse(text=f"t{i % 3}"))

        threads = [threading.Thread(target=put, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.get(req("p0")).text == "t0"

    def test_unreadable_entry_is_a_logged_miss_then_rewritten(self, tmp_path, caplog):
        request = req("p")
        entry = tmp_path / f"{cache_key(request)}.json"
        entry.write_text('{"text": "out", "finish_re', encoding="utf-8")
        inner = CountingClient("fresh")
        with caplog.at_level(logging.WARNING, logger="claimdecomp.llm"):
            assert CachingClient(inner, tmp_path).complete(request).text == "fresh"
        assert inner.calls == 1
        assert "unreadable cache entry" in caplog.text
        assert json.loads(entry.read_text(encoding="utf-8"))["text"] == "fresh"

    def test_writers_in_two_processes_share_a_key(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_put_one_key, args=(str(tmp_path), w, 4, 150))
                 for w in range(2)]
        for proc in procs:
            proc.start()
        try:
            for proc in procs:
                proc.join(timeout=120)
            assert not any(proc.is_alive() for proc in procs)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert [p.name for p in tmp_path.iterdir()] == [f"{cache_key(req('shared'))}.json"]
        assert ResponseCache(tmp_path).get(req("shared")).text.startswith("w")


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload else "")

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestHttpClient:
    def _client(self, session, **kw):
        kw.setdefault("backoff_s", 0.0)
        return HttpCompletionClient(url="http://example.test/v1/completions",
                                    model="m", session=session, **kw)

    def test_success(self):
        session = FakeSession([FakeResponse(payload={
            "choices": [{"text": "hello", "finish_reason": "stop"}]})])
        response = self._client(session).complete(req())
        assert response.text == "hello"
        assert response.finish_reason == "stop"

    def test_retries_transient_then_succeeds(self):
        session = FakeSession([
            FakeResponse(status_code=500),
            FakeResponse(status_code=429),
            FakeResponse(payload={"choices": [{"text": "ok", "finish_reason": "stop"}]}),
        ])
        response = self._client(session, max_retries=3).complete(req())
        assert response.text == "ok"
        assert session.calls == 3

    def test_retries_exhausted(self):
        session = FakeSession([FakeResponse(status_code=500)] * 3)
        with pytest.raises(CompletionError, match="retries exhausted"):
            self._client(session, max_retries=2).complete(req())

    def test_context_length_error_kind(self):
        session = FakeSession([FakeResponse(
            status_code=400, text='{"error": {"code": "context_length_exceeded"}}')])
        with pytest.raises(ContextLengthError):
            self._client(session).complete(req())

    def test_other_400_is_plain_error(self):
        session = FakeSession([FakeResponse(status_code=400, text="bad request")])
        with pytest.raises(CompletionError):
            self._client(session).complete(req())

    def test_malformed_body(self):
        session = FakeSession([FakeResponse(payload={"nope": []})])
        with pytest.raises(CompletionError, match="malformed"):
            self._client(session).complete(req())

    def test_requires_url(self, monkeypatch):
        monkeypatch.delenv("CLAIMDECOMP_ENDPOINT_URL", raising=False)
        with pytest.raises(CompletionError, match="endpoint"):
            HttpCompletionClient(url=None)

    def test_url_from_env(self, monkeypatch):
        monkeypatch.setenv("CLAIMDECOMP_ENDPOINT_URL", "http://env.test")
        client = HttpCompletionClient()
        assert client.url == "http://env.test"
