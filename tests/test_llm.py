import http.client
import json
import logging
import math
import multiprocessing
import sys
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from claimdecomp.llm import (CachingClient, CompletionError, CompletionRequest,
                             CompletionResponse, ContextLengthError,
                             HttpCompletionClient, MockCompletionClient,
                             ResponseCache, cache_key, complete_all)
from claimdecomp.validate import HttpNliClient, NliVerdict, ValidateError


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

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            CompletionRequest(model="m", prompt="p", temperature=temperature)


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

    def test_batch_sends_each_distinct_miss_once(self, tmp_path):
        inner = CountingClient()
        client = CachingClient(inner, tmp_path)
        client.complete(req("warm"))
        mapped = []

        def recording_map(fn, items):
            mapped.extend(items)
            return map(fn, items)

        batch = [req("a"), req("warm"), req("b"), req("a"), req("b"), req("a")]
        responses = complete_all(client, batch, recording_map)
        assert [r.text for r in responses] == ["out"] * 6
        assert inner.calls == 1 + 2
        assert mapped == [req("a"), req("b")]
        assert ResponseCache(tmp_path).get(req("b")).text == "out"

    def test_batch_in_cache_only_mode_fails_before_any_call(self, tmp_path):
        CachingClient(CountingClient(), tmp_path).complete(req("warm"))
        inner = CountingClient()
        client = CachingClient(inner, tmp_path, cache_only=True)
        mapped = []

        def recording_map(fn, items):
            mapped.extend(items)
            return map(fn, items)

        with pytest.raises(CompletionError, match="cache-only"):
            complete_all(client, [req("warm"), req("cold")], recording_map)
        assert inner.calls == 0 and mapped == []
        assert complete_all(client, [req("warm")], recording_map)[0].text == "out"

    def test_batch_without_cache_maps_every_request(self):
        inner = CountingClient()
        responses = complete_all(inner, [req("a"), req("a")])
        assert len(responses) == 2 and inner.calls == 2

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


def reply(status=200, payload=None, text="", headers=None):
    """A ``post_json`` result: status, headers and body text."""
    return status, headers or {}, text or (json.dumps(payload) if payload else "")


class FakePost:
    """Stands in for ``llm.post_json``: returns (or raises) the scripted
    items in turn."""

    def __init__(self, items):
        self.items = list(items)
        self.calls = 0

    def __call__(self, url, payload, headers, timeout_s):
        self.calls += 1
        item = self.items.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestHttpClient:
    def _client(self, monkeypatch, post, **kw):
        monkeypatch.setattr("claimdecomp.llm.post_json", post)
        kw.setdefault("backoff_s", 0.0)
        return HttpCompletionClient(url="http://example.test/v1/completions",
                                    model="m", **kw)

    def test_success(self, monkeypatch):
        post = FakePost([reply(payload={
            "choices": [{"text": "hello", "finish_reason": "stop"}]})])
        response = self._client(monkeypatch, post).complete(req())
        assert response.text == "hello"
        assert response.finish_reason == "stop"

    def test_retries_transient_then_succeeds(self, monkeypatch):
        post = FakePost([
            reply(status=500),
            reply(status=429),
            reply(payload={"choices": [{"text": "ok", "finish_reason": "stop"}]}),
        ])
        response = self._client(monkeypatch, post, max_retries=3).complete(req())
        assert response.text == "ok"
        assert post.calls == 3

    @pytest.mark.parametrize("failure", [
        http.client.IncompleteRead(b""),
        http.client.RemoteDisconnected("closed"),
        urllib.error.URLError("refused"),
        TimeoutError("timed out"),
    ], ids=lambda exc: type(exc).__name__)
    def test_no_response_is_retried(self, monkeypatch, failure):
        post = FakePost([failure, reply(payload={"choices": [{"text": "ok"}]})])
        response = self._client(monkeypatch, post).complete(req())
        assert response == CompletionResponse(text="ok", finish_reason="stop")
        assert post.calls == 2

    @pytest.mark.parametrize("status, retry_after, slept", [
        (429, "2", [2.0]),
        (503, "0", [0.0]),
        (429, None, [0.5]),
        (500, "2", [0.5]),  # only a 429 or 503 names the delay
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", [0.5]),  # HTTP-date form: backoff
    ])
    def test_retry_after_replaces_backoff(self, monkeypatch, status, retry_after, slept):
        sleeps = []
        monkeypatch.setattr("claimdecomp.llm.time.sleep", sleeps.append)
        headers = {"Retry-After": retry_after} if retry_after is not None else {}
        post = FakePost([
            reply(status=status, headers=headers),
            reply(payload={"choices": [{"text": "ok", "finish_reason": "stop"}]}),
        ])
        response = self._client(monkeypatch, post, backoff_s=0.5).complete(req())
        assert response.text == "ok"
        assert sleeps == slept

    def test_backoff_doubles_per_attempt(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("claimdecomp.llm.time.sleep", sleeps.append)
        post = FakePost([reply(status=500)] * 4)
        with pytest.raises(CompletionError, match="retries exhausted"):
            self._client(monkeypatch, post, backoff_s=0.5, max_retries=3).complete(req())
        assert sleeps == [0.5, 1.0, 2.0]

    def test_retries_exhausted(self, monkeypatch):
        post = FakePost([reply(status=500)] * 3)
        with pytest.raises(CompletionError, match="retries exhausted"):
            self._client(monkeypatch, post, max_retries=2).complete(req())

    def test_context_length_error_kind(self, monkeypatch):
        post = FakePost([reply(
            status=400, text='{"error": {"code": "context_length_exceeded"}}')])
        with pytest.raises(ContextLengthError):
            self._client(monkeypatch, post).complete(req())

    def test_other_400_is_plain_error(self, monkeypatch):
        post = FakePost([reply(status=400, text="bad request")])
        with pytest.raises(CompletionError):
            self._client(monkeypatch, post).complete(req())

    def test_malformed_body(self, monkeypatch):
        post = FakePost([reply(payload={"nope": []})])
        with pytest.raises(CompletionError, match="malformed"):
            self._client(monkeypatch, post).complete(req())

    @pytest.mark.parametrize("body", [
        "[]",
        '{"choices": [null]}',
        '{"choices": ["x"]}',
        '{"choices": [{"text": 5}]}',
        '{"choices": [{"finish_reason": "stop"}]}',
        '{"choices": [{"text": "x", "finish_reason": 3}]}',
        '{"choices": []}',
        "not json",
    ], ids=["list", "null-choice", "str-choice", "int-text", "no-text", "int-finish",
            "no-choice", "not-json"])
    def test_body_of_the_wrong_shape(self, monkeypatch, body):
        post = FakePost([reply(text=body)])
        with pytest.raises(CompletionError, match="malformed"):
            self._client(monkeypatch, post).complete(req())

    def test_requires_url(self, monkeypatch):
        monkeypatch.delenv("CLAIMDECOMP_ENDPOINT_URL", raising=False)
        with pytest.raises(CompletionError, match="endpoint"):
            HttpCompletionClient(url=None)

    def test_url_from_env(self, monkeypatch):
        monkeypatch.setenv("CLAIMDECOMP_ENDPOINT_URL", "http://env.test")
        client = HttpCompletionClient()
        assert client.url == "http://env.test"

    def test_url_without_scheme_fails_as_no_response(self, monkeypatch):
        monkeypatch.setattr("claimdecomp.llm.time.sleep", lambda s: None)
        client = HttpCompletionClient(url="example.test/v1/completions", max_retries=1)
        with pytest.raises(CompletionError, match="retries exhausted: request failed"):
            client.complete(req())


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next (status, headers, body) of the
    server's ``script`` and records the request."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.received.append((dict(self.headers), json.loads(body)))
        status, headers, text = self.server.script.pop(0)
        data = text.encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback():
    """A scripted HTTP server on 127.0.0.1; yields (server, url)."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.script, server.received = [], []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class TestLoopback:
    """The real ``post_json`` against a local server: urllib's HTTPError
    path must reach the clients as statuses."""

    def test_retry_after_then_success(self, loopback):
        server, url = loopback
        server.script = [(429, {"Retry-After": "0"}, "slow down"),
                         (200, {}, '{"choices": [{"text": "hi", "finish_reason": "length"}]}')]
        client = HttpCompletionClient(url=url, model="m", api_key="k", backoff_s=5.0)
        assert client.complete(req("p", max_tokens=8)) == \
            CompletionResponse(text="hi", finish_reason="length")
        assert len(server.received) == 2
        headers, payload = server.received[-1]
        assert payload == {"model": "m", "prompt": "p", "max_tokens": 8, "temperature": 0.7}
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer k"

    def test_context_length_rejection(self, loopback):
        server, url = loopback
        server.script = [(400, {}, '{"error": {"code": "context_length_exceeded"}}')]
        with pytest.raises(ContextLengthError):
            HttpCompletionClient(url=url).complete(req())

    def test_server_errors_exhaust_retries(self, loopback):
        server, url = loopback
        server.script = [(500, {}, "boom")] * 3
        with pytest.raises(CompletionError, match="retries exhausted: HTTP 500"):
            HttpCompletionClient(url=url, max_retries=2, backoff_s=0.0).complete(req())
        assert len(server.received) == 3

    def test_non_json_success_body(self, loopback):
        server, url = loopback
        server.script = [(200, {}, "<html>not json</html>")]
        with pytest.raises(CompletionError, match="malformed"):
            HttpCompletionClient(url=url).complete(req())

    def test_nli_client(self, loopback):
        server, url = loopback
        server.script = [(200, {}, '{"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}'),
                         (503, {}, "unavailable"),
                         (200, {}, "not json")]
        client = HttpNliClient(url)
        assert client.classify("p", "h") == NliVerdict(0.7, 0.2, 0.1)
        assert server.received[0][1] == {"premise": "p", "hypothesis": "h"}
        with pytest.raises(ValidateError, match="HTTP 503"):
            client.classify("p", "h")
        with pytest.raises(ValidateError, match="malformed"):
            client.classify("p", "h")
