import http.client
import json
import logging
import math
import multiprocessing
import sys
import threading
import time
import urllib.error
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from claimdecomp.llm import (CachingClient, CompletionError, CompletionRequest,
                             CompletionResponse, ContextLengthError,
                             HttpCompletionClient, MockCompletionClient,
                             ResponseCache, TransientError, cache_key, complete_all)
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


class FlakyClient(CountingClient):
    """Fails the first attempt at each of ``flaky`` prompts transiently;
    retries at once, up to ``max_retries`` times."""

    max_retries = 1

    def __init__(self, *flaky):
        super().__init__()
        self.flaky = set(flaky)
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.prompt)
        if request.prompt in self.flaky:
            self.flaky.discard(request.prompt)
            raise TransientError("HTTP 503")
        return super().complete(request)

    def retry_delay_s(self, error, attempt):
        return 0.0 if attempt < self.max_retries else None


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

    def test_window_rejection_is_cached_and_raised_again(self, tmp_path):
        inner = MockCompletionClient(length_error_substrings=("too long",))
        client = CachingClient(inner, tmp_path)
        request = req("far too long")
        for _ in range(2):
            with pytest.raises(ContextLengthError, match="exceeds context window"):
                client.complete(request)
        assert inner.calls == [request]
        entry = json.loads((tmp_path / f"{cache_key(request)}.json").read_text(encoding="utf-8"))
        assert entry == {**vars(request),
                         "context_length_error": "mock: prompt exceeds context window"}
        with pytest.raises(ContextLengthError):
            CachingClient(CountingClient(), tmp_path, cache_only=True).complete(request)

    def test_wrong_typed_rejection_is_a_logged_miss(self, tmp_path, caplog):
        request = req("p")
        entry = tmp_path / f"{cache_key(request)}.json"
        entry.write_text('{"context_length_error": 5}', encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="claimdecomp.llm"):
            assert ResponseCache(tmp_path).get(request) is None
        assert "field 'context_length_error'" in caplog.text

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

    def test_wrong_typed_entry_is_a_logged_miss(self, tmp_path, caplog):
        request = req("p")
        entry = tmp_path / f"{cache_key(request)}.json"
        entry.write_text('{"text": 5, "finish_reason": "stop"}', encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="claimdecomp.llm"):
            assert ResponseCache(tmp_path).get(request) is None
        assert "unreadable cache entry" in caplog.text and "field 'text'" in caplog.text

    def test_each_round_writes_its_responses(self, tmp_path, monkeypatch):
        monkeypatch.setattr("claimdecomp.llm.time", FakeClock())
        inner = FlakyClient("b")
        client = CachingClient(inner, tmp_path)
        assert [r.text for r in complete_all(client, [req("a"), req("b")])] == ["out"] * 2
        assert inner.prompts == ["a", "b", "b"]
        assert ResponseCache(tmp_path).get(req("b")).text == "out"

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


class FakeClock:
    """Stands in for the ``time`` module in ``claimdecomp.llm``: the clock
    moves only when the code sleeps or a fake post advances it."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def send(client, request):
    """One request through ``complete_all``, which retries."""
    return complete_all(client, [request])[0]


def reply(status=200, payload=None, text="", headers=None):
    """A ``post_json`` result: status, headers and body text."""
    return status, headers or {}, text or (json.dumps(payload) if payload else "")


class FakePost:
    """Stands in for ``llm.post_json``: returns (or raises) the scripted
    items in turn, and notes the ``clock`` time of each call."""

    def __init__(self, items, clock=None):
        self.items = list(items)
        self.calls = 0
        self.clock = clock
        self.times = []

    def __call__(self, url, payload, headers, timeout_s):
        self.calls += 1
        if self.clock is not None:
            self.times.append(self.clock.now)
        item = self.items.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def waits(self):
        """Seconds between one call and the next: with posts that take no
        clock time, the wait from each failure to its retry."""
        return [later - earlier for earlier, later in zip(self.times, self.times[1:])]


class TestHttpClient:
    def _client(self, monkeypatch, post, **kw):
        monkeypatch.setattr("claimdecomp.llm.post_json", post)
        kw.setdefault("backoff_s", 0.0)
        return HttpCompletionClient(url="http://example.test/v1/completions",
                                    model="m", **kw)

    def _clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr("claimdecomp.llm.time", clock)
        return clock

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
        response = send(self._client(monkeypatch, post, max_retries=3), req())
        assert response.text == "ok"
        assert post.calls == 3

    def test_one_attempt_per_complete(self, monkeypatch):
        post = FakePost([reply(status=429, headers={"Retry-After": "7"})])
        with pytest.raises(TransientError, match="HTTP 429") as raised:
            self._client(monkeypatch, post).complete(req())
        assert raised.value.retry_after_s == 7.0 and post.calls == 1

    @pytest.mark.parametrize("failure", [
        http.client.IncompleteRead(b""),
        http.client.RemoteDisconnected("closed"),
        urllib.error.URLError("refused"),
        TimeoutError("timed out"),
    ], ids=lambda exc: type(exc).__name__)
    def test_no_response_is_retried(self, monkeypatch, failure):
        post = FakePost([failure, reply(payload={"choices": [{"text": "ok"}]})])
        response = send(self._client(monkeypatch, post), req())
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
        headers = {"Retry-After": retry_after} if retry_after is not None else {}
        post = FakePost([
            reply(status=status, headers=headers),
            reply(payload={"choices": [{"text": "ok", "finish_reason": "stop"}]}),
        ], self._clock(monkeypatch))
        response = send(self._client(monkeypatch, post, backoff_s=0.5), req())
        assert response.text == "ok"
        assert post.waits() == slept

    def test_backoff_doubles_per_attempt(self, monkeypatch):
        post = FakePost([reply(status=500)] * 4, self._clock(monkeypatch))
        with pytest.raises(CompletionError, match="retries exhausted"):
            send(self._client(monkeypatch, post, backoff_s=0.5, max_retries=3), req())
        assert post.waits() == [0.5, 1.0, 2.0]

    def test_retries_exhausted(self, monkeypatch):
        post = FakePost([reply(status=500)] * 3)
        with pytest.raises(CompletionError, match="retries exhausted"):
            send(self._client(monkeypatch, post, max_retries=2), req())

    def test_retry_waits_for_the_rest_of_its_batch(self, monkeypatch):
        clock = self._clock(monkeypatch)
        sent = []

        def post(url, payload, headers, timeout_s):
            sent.append((payload["prompt"], clock.now))
            clock.now += 0.1  # each post takes 0.1 s
            if [prompt for prompt, _ in sent] == ["a"]:
                return reply(status=429)
            return reply(payload={"choices": [{"text": payload["prompt"].upper()}]})

        client = self._client(monkeypatch, post, backoff_s=0.5)
        responses = complete_all(client, [req("a"), req("b"), req("c"), req("d")], map)
        assert [r.text for r in responses] == ["A", "B", "C", "D"]
        assert [prompt for prompt, _ in sent] == ["a", "b", "c", "d", "a"]
        # "a" failed at 0.1 s; the wait runs from then, not from the round's end at 0.4 s
        assert clock.sleeps == [pytest.approx(0.2)]
        assert sent[-1][1] == pytest.approx(0.6)

    def test_later_failure_in_a_round_waits_in_its_worker(self, monkeypatch):
        clock = self._clock(monkeypatch)
        sent = []

        def post(url, payload, headers, timeout_s):
            sent.append((payload["prompt"], clock.now))
            clock.now += 0.1  # each post takes 0.1 s
            if len(sent) <= 2:  # the first tries of "a" and "b"
                return reply(status=429)
            return reply(payload={"choices": [{"text": payload["prompt"].upper()}]})

        client = self._client(monkeypatch, post, backoff_s=0.5)
        responses = complete_all(client, [req("a"), req("b"), req("c")], map)
        assert [r.text for r in responses] == ["A", "B", "C"]
        # "a" waits for the next round; "b" fails while it waits, so b's
        # worker sleeps through the backoff and sends it again before "c"
        assert [prompt for prompt, _ in sent] == ["a", "b", "b", "c", "a"]
        assert clock.sleeps == [pytest.approx(0.5)]
        assert sent[2][1] == pytest.approx(0.7) and sent[-1][1] == pytest.approx(0.9)

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
        self._clock(monkeypatch)
        client = HttpCompletionClient(url="example.test/v1/completions", max_retries=1)
        with pytest.raises(CompletionError, match="retries exhausted: request failed"):
            send(client, req())

    def test_file_url_fails_as_no_response(self, monkeypatch, tmp_path):
        # urllib answers a file: URL without an HTTP status
        self._clock(monkeypatch)
        target = tmp_path / "f.json"
        target.write_text('{"choices": [{"text": "x"}]}', encoding="utf-8")
        client = HttpCompletionClient(url=target.as_uri(), max_retries=1)
        with pytest.raises(CompletionError, match="retries exhausted: request failed"):
            send(client, req())


class TestRounds:
    def test_one_failed_request_per_round_goes_to_the_next(self):
        # Every request fails its first try at once; a lost update of the
        # round's one place in the next round would put two requests there.
        prompts = [f"p{i}" for i in range(64)]
        inner = FlakyClient(*prompts)
        rounds = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                def recording_map(fn, items):
                    rounds.append(len(items))
                    return pool.map(fn, items)

                responses = complete_all(inner, [req(p) for p in prompts], recording_map)
        finally:
            sys.setswitchinterval(interval)
        assert [r.text for r in responses] == ["out"] * 64
        assert rounds == [64, 1] and len(inner.prompts) == 128


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


class RateLimitedHandler(BaseHTTPRequestHandler):
    """Answers at most ``server.limit`` POSTs in any ``server.window_s``
    seconds, and a bare 429 to every POST over that rate."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            now = time.monotonic()
            server.admitted = [t for t in server.admitted if t > now - server.window_s]
            admitted = len(server.admitted) < server.limit
            if admitted:
                server.admitted.append(now)
        data = b'{"choices": [{"text": "ok"}]}' if admitted else b"slow down"
        self.send_response(200 if admitted else 429)
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
        assert send(client, req("p", max_tokens=8)) == \
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
            send(HttpCompletionClient(url=url, max_retries=2, backoff_s=0.0), req())
        assert len(server.received) == 3

    def test_retry_arrives_after_the_rest_of_its_batch(self, loopback):
        server, url = loopback
        prompts = [f"p{i}" for i in range(6)]
        ok = '{"choices": [{"text": "ok"}]}'
        server.script = [(429, {"Retry-After": "0"}, "slow down")] + [(200, {}, ok)] * 6
        client = HttpCompletionClient(url=url, backoff_s=5.0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            responses = complete_all(client, [req(p) for p in prompts], pool.map)
        assert [r.text for r in responses] == ["ok"] * 6
        arrived = [payload["prompt"] for _, payload in server.received]
        # whichever request arrived first got the 429; its retry came last
        assert sorted(arrived[:-1]) == prompts and arrived[-1] == arrived[0]

    def test_sustained_throttling_slows_the_batch_down(self):
        # 4 answers per 50 ms, and a pool of 4 that could send far more. Each
        # worker that waits through its backoff slows the batch down; sending
        # every unanswered request again each round would spend their three
        # retries within a few rounds.
        server = ThreadingHTTPServer(("127.0.0.1", 0), RateLimitedHandler)
        server.lock, server.admitted = threading.Lock(), []
        server.limit, server.window_s = 4, 0.05
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpCompletionClient(
                url=f"http://127.0.0.1:{server.server_address[1]}/v1", backoff_s=0.1)
            with ThreadPoolExecutor(max_workers=4) as pool:
                responses = complete_all(client, [req(f"p{i}") for i in range(24)],
                                         pool.map)
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert [r.text for r in responses] == ["ok"] * 24

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


class KeepAliveHandler(BaseHTTPRequestHandler):
    """An HTTP/1.1 server that counts the connections it accepts and records
    each POST's target and prompt. It answers ``server.body``; or, with
    ``server.hold_s`` set, reads the request and waits that long without
    answering. With ``server.close_after`` set it closes each connection
    after its first response, without saying so."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.received.append((self.path, self.headers["Host"],
                                     payload.get("prompt", payload.get("premise"))))
        if self.server.hold_s is not None:
            self.server.release.wait(self.server.hold_s)
            self.close_connection = True
            return
        data = self.server.body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = self.server.close_after

    def log_message(self, *args):
        pass


@pytest.fixture
def keepalive():
    """A ``KeepAliveHandler`` server on 127.0.0.1; yields (server, url)."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveHandler)
    server.lock, server.connections, server.received = threading.Lock(), 0, []
    server.body, server.hold_s = '{"choices": [{"text": "ok"}]}', None
    server.close_after, server.release = False, threading.Event()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/v1"
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join()


def in_a_thread(fn):
    """``fn()`` run in a thread of its own, whose connections close when it ends."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result()


class TestConnectionReuse:
    def test_each_pool_worker_keeps_one_connection(self, keepalive):
        server, url = keepalive
        client = HttpCompletionClient(url=url)
        with ThreadPoolExecutor(max_workers=2) as pool:
            responses = complete_all(client, [req(f"p{i}") for i in range(20)], pool.map)
        assert [r.text for r in responses] == ["ok"] * 20
        assert len(server.received) == 20 and server.connections <= 2

    def test_nli_client_keeps_one_connection(self, keepalive):
        server, url = keepalive
        server.body = '{"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}'
        client = HttpNliClient(url)
        verdicts = in_a_thread(lambda: [client.classify("p", "h") for _ in range(3)])
        assert verdicts == [NliVerdict(0.7, 0.2, 0.1)] * 3
        assert len(server.received) == 3 and server.connections == 1

    def test_connection_closed_while_idle_is_sent_once_more_at_once(self, keepalive):
        server, url = keepalive
        server.close_after = True
        client = HttpCompletionClient(url=url, backoff_s=5.0)

        def two_requests():
            send(client, req("a"))
            started = time.monotonic()
            response = send(client, req("b"))
            return response, time.monotonic() - started

        response, took_s = in_a_thread(two_requests)
        assert response.text == "ok" and took_s < 1.0
        assert [prompt for _, _, prompt in server.received] == ["a", "b"]
        assert server.connections == 2

    @pytest.mark.parametrize("hold_s", [5.0, 0.0], ids=["timeout", "hang-up"])
    def test_no_answer_on_a_new_connection_is_not_sent_again(self, keepalive, hold_s):
        server, url = keepalive
        server.hold_s = hold_s
        client = HttpCompletionClient(url=url, timeout_s=0.2)
        with pytest.raises(TransientError, match="request failed"):
            in_a_thread(lambda: client.complete(req("a")))
        assert [prompt for _, _, prompt in server.received] == ["a"]


class TestProxy:
    @pytest.fixture(autouse=True)
    def no_proxy_settings(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)

    def test_http_proxy_gets_the_absolute_form_target(self, keepalive, monkeypatch):
        server, url = keepalive
        monkeypatch.setenv("http_proxy", url.removesuffix("/v1"))
        # nothing listens on port 9, so a request that skipped the proxy fails
        client = HttpCompletionClient(url="http://localhost:9/v1/completions?x=1")
        assert in_a_thread(lambda: client.complete(req("a"))).text == "ok"
        assert server.received == [
            ("http://localhost:9/v1/completions?x=1", "localhost:9", "a")]

    def test_no_proxy_host_goes_direct(self, keepalive, monkeypatch):
        server, url = keepalive
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
        monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
        client = HttpCompletionClient(url=url + "/completions")
        assert in_a_thread(lambda: client.complete(req("a"))).text == "ok"
        assert [(path, prompt) for path, _, prompt in server.received] == \
            [("/v1/completions", "a")]
