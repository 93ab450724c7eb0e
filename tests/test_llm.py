import base64
import http.client
import json
import math
import multiprocessing
import re
import sys
import threading
import time
import urllib.error
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from claimdecomp import llm
from claimdecomp.corpus import CorpusError
from claimdecomp.llm import (CachingClient, CompletionError, CompletionRequest,
                             CompletionResponse, ContextLengthError, HttpCompletionClient,
                             MockCompletionClient, ProxySettingError, ResponseCache, Throttle,
                             TransientError, cache_key, complete_all, post_json)


def req(prompt="p", **kw):
    kw.setdefault("model", "m")
    return CompletionRequest(prompt=prompt, **kw)


def set_policy(monkeypatch, **values):
    """Sets the HTTP client's policy constants in ``llm`` for one test, each
    named in lower case: ``max_retries``, ``backoff_s`` or ``timeout_s``."""
    for name, value in values.items():
        monkeypatch.setattr(llm, name.upper(), value)


@pytest.fixture
def policy(monkeypatch):
    """``policy(backoff_s=0.0, ...)``: ``set_policy`` for this test."""
    return partial(set_policy, monkeypatch)


class CountingClient:
    model = "counting"

    def __init__(self, text="out"):
        self.calls = 0
        self.text = text

    def complete(self, request):
        self.calls += 1
        return CompletionResponse(text=self.text)


class FlakyClient(CountingClient):
    """Fails the first attempt at each of ``flaky`` prompts transiently, and
    sends through a throttle of its own, which retries it."""

    def __init__(self, *flaky):
        super().__init__()
        self.flaky = set(flaky)
        self.prompts = []
        self.throttle = Throttle()

    def complete(self, request):
        self.prompts.append(request.prompt)
        if request.prompt in self.flaky:
            self.flaky.discard(request.prompt)
            raise TransientError("HTTP 503")
        return super().complete(request)


def _log_lines(cache_dir) -> list[bytes]:
    return (cache_dir / "responses.jsonl").read_bytes().splitlines(keepends=True)


def _write_entry(cache_dir, request: CompletionRequest, rest: str) -> None:
    """A cache log whose one line is ``request``'s key followed by ``rest``."""
    (cache_dir / "responses.jsonl").write_text(
        f'{{"key": "{cache_key(request)}", {rest}\n', encoding="utf-8")


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

    def test_per_file_entries_of_an_older_layout_refused(self, tmp_path):
        (tmp_path / f"{cache_key(req())}.json").write_text('{"text": "x"}', encoding="utf-8")
        with pytest.raises(CorpusError, match="older per-file layout"):
            CachingClient(CountingClient(), tmp_path)
        assert not (tmp_path / "responses.jsonl").exists()

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
        [line] = _log_lines(tmp_path)
        entry = json.loads(line)
        # the key first, then the request and outcome fields, sorted
        assert list(entry) == ["key", "context_length_error", "max_tokens", "model", "prompt",
                               "temperature"]
        assert entry == {"key": cache_key(request), **vars(request),
                         "context_length_error": "mock: prompt exceeds context window"}
        with pytest.raises(ContextLengthError):
            CachingClient(CountingClient(), tmp_path, cache_only=True).complete(request)

    def test_failed_batch_keeps_every_answer(self, tmp_path):
        # the first of 8 requests gets a non-transient error; the other 7
        # workers' answers are cached by the workers that got them
        started, release = threading.Barrier(8), threading.Event()

        class FirstFails(CountingClient):
            def complete(self, request):
                started.wait(timeout=10)
                if request.prompt == "p0":
                    raise CompletionError("HTTP 400: bad request")
                release.wait(timeout=10)
                return super().complete(request)

        batch = [req(f"p{i}") for i in range(8)]
        with ThreadPoolExecutor(8) as pool:
            with pytest.raises(CompletionError, match="HTTP 400"):
                complete_all(CachingClient(FirstFails(), tmp_path), batch, pool.map)
            release.set()
        cache = ResponseCache(tmp_path)
        assert [cache.get(request) for request in batch] == \
            [None] + [CompletionResponse(text="out")] * 7

    def test_window_rejection_mid_batch_is_cached_and_raised_after_the_batch(self, tmp_path):
        inner = MockCompletionClient(default="out", length_error_substrings=("too long",))
        client = CachingClient(inner, tmp_path)
        batch = [req("a"), req("b too long"), req("c"), req("d too long")]
        with pytest.raises(ContextLengthError):
            complete_all(client, batch)
        assert inner.calls == batch
        cache = ResponseCache(tmp_path)
        assert [type(cache.get(request)) for request in batch] == \
            [CompletionResponse, ContextLengthError] * 2
        with pytest.raises(ContextLengthError):  # a replay sends nothing and raises again
            complete_all(client, batch)
        assert inner.calls == batch

    def test_wrong_typed_rejection_is_a_logged_miss(self, tmp_path):
        request = req("p")
        _write_entry(tmp_path, request, '"context_length_error": 5}')
        cache = ResponseCache(tmp_path)
        assert cache.get(request) is None
        assert cache.unreadable == {cache_key(request).encode()}
        # the field's type alone made it unreadable
        _write_entry(tmp_path, request, '"context_length_error": "5"}')
        cache = ResponseCache(tmp_path)
        assert isinstance(cache.get(request), ContextLengthError) and cache.unreadable == set()

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

    def test_unreadable_entry_is_a_logged_miss_then_rewritten(self, tmp_path):
        request = req("p")
        _write_entry(tmp_path, request, '"text": "out", "finish_re')
        inner = CountingClient("fresh")
        client = CachingClient(inner, tmp_path)
        assert client.complete(request).text == "fresh"
        assert inner.calls == 1
        # the count names the entry by its key, in the log at the cache's path
        assert client.cache.unreadable == {cache_key(request).encode()}
        assert client.cache.path == tmp_path / "responses.jsonl"
        assert len(_log_lines(tmp_path)) == 2  # a later line for the key wins
        cache = ResponseCache(tmp_path)
        assert cache.get(request).text == "fresh" and cache.unreadable == set()

    def test_wrong_typed_entry_is_a_logged_miss(self, tmp_path):
        request = req("p")
        _write_entry(tmp_path, request, '"finish_reason": "stop", "text": 5}')
        cache = ResponseCache(tmp_path)
        assert cache.get(request) is None
        assert cache.unreadable == {cache_key(request).encode()}
        # the field's type alone made it unreadable
        _write_entry(tmp_path, request, '"finish_reason": "stop", "text": "5"}')
        cache = ResponseCache(tmp_path)
        assert cache.get(request).text == "5" and cache.unreadable == set()

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
        assert [p.name for p in tmp_path.iterdir()] == ["responses.jsonl"]
        # no write joined or cut another: every line is one whole entry
        entries = [json.loads(line) for line in _log_lines(tmp_path)]
        assert len(entries) == 2 * 4 * 150
        assert {entry["key"] for entry in entries} == {cache_key(req("shared"))}
        assert ResponseCache(tmp_path).get(req("shared")).text.startswith("w")

    def test_torn_last_line_is_left_out_and_ended_by_the_next_put(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put(req("a"), CompletionResponse(text="kept"))
        cache.put(req("b"), CompletionResponse(text="torn"))
        log = tmp_path / "responses.jsonl"
        log.write_bytes(log.read_bytes()[:-20])
        cache = ResponseCache(tmp_path)
        assert cache.torn == 1
        assert cache.get(req("a")).text == "kept" and cache.get(req("b")) is None
        cache.put(req("b"), CompletionResponse(text="again"))
        assert cache.get(req("b")).text == "again"
        # the torn line got its own newline, so the new entry is a line of its own
        lines = _log_lines(tmp_path)
        assert len(lines) == 3 and all(line.endswith(b"\n") for line in lines)
        assert json.loads(lines[2])["text"] == "again"
        cache = ResponseCache(tmp_path)
        assert cache.get(req("b")).text == "again"
        assert (cache.torn, cache.unreadable) == (0, set())

    def test_unreadable_entries_read_at_once_count_once_each(self, tmp_path):
        # a contended pool reads every entry of a log whose entries are all
        # unreadable, each many times; a lost update would drop a key
        requests = [req(f"p{i}") for i in range(16)]
        (tmp_path / "responses.jsonl").write_text("".join(
            f'{{"key": "{cache_key(request)}", "text": 5}}\n' for request in requests))
        cache = ResponseCache(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert list(pool.map(cache.get, requests * 8)) == [None] * 128
        finally:
            sys.setswitchinterval(interval)
        assert cache.unreadable == {cache_key(request).encode() for request in requests}

    def test_cache_that_never_puts_makes_no_file(self, tmp_path):
        role = tmp_path / "role"
        with pytest.raises(CompletionError, match="cache-only"):
            CachingClient(CountingClient(), role, cache_only=True).complete(req("p"))
        assert ResponseCache(role).get(req("p")) is None
        assert not role.exists()


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

    def __call__(self, url, payload, headers):
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


def http_client(monkeypatch, post, **policy):
    """A client whose requests go to ``post``, under the ``policy`` constants given."""
    set_policy(monkeypatch, **policy)
    monkeypatch.setattr("claimdecomp.llm.post_json", post)
    return HttpCompletionClient(url="http://example.test/v1/completions", model="m")


OK = reply(payload={"choices": [{"text": "ok"}]})


class TestHttpClient:
    def _client(self, monkeypatch, post, **kw):
        kw.setdefault("backoff_s", 0.0)
        return http_client(monkeypatch, post, **kw)

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
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", [0.0]),  # an HTTP-date in the past
        (429, "not a date", [0.5]),
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

    def test_retry_after_http_date_in_the_future(self, monkeypatch):
        post = FakePost([
            reply(status=503, headers={"Retry-After": formatdate(time.time() + 30, usegmt=True)}),
            OK,
        ], self._clock(monkeypatch))
        assert send(self._client(monkeypatch, post, backoff_s=0.5), req()).text == "ok"
        # whole seconds on the wire, and the clock moved on since formatting
        (wait,) = post.waits()
        assert 28.0 < wait <= 30.0

    def test_backoff_doubles_per_attempt(self, monkeypatch):
        post = FakePost([reply(status=500)] * 4, self._clock(monkeypatch))
        with pytest.raises(CompletionError, match="retries exhausted"):
            send(self._client(monkeypatch, post, backoff_s=0.5, max_retries=3), req())
        assert post.waits() == [0.5, 1.0, 2.0]

    def test_retries_exhausted(self, monkeypatch):
        post = FakePost([reply(status=500)] * 3)
        with pytest.raises(CompletionError, match="retries exhausted"):
            send(self._client(monkeypatch, post, max_retries=2), req())

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

    def test_missing_url_fails_when_built(self, monkeypatch):
        monkeypatch.delenv("CLAIMDECOMP_ENDPOINT_URL", raising=False)
        with pytest.raises(ValueError, match=r"^no endpoint configured$"):
            HttpCompletionClient(url=None)

    def test_url_from_env(self, monkeypatch):
        monkeypatch.setenv("CLAIMDECOMP_ENDPOINT_URL", "http://env.test")
        client = HttpCompletionClient()
        assert client.url == "http://env.test"

    # each malformed URL's reason, which the message names after the URL
    MALFORMED_URLS = {
        "example.test/v1/completions": "is not an http or https URL",
        "http://": "names no host",
        "http:///v1/completions": "names no host",
        "http://localhost:notaport/v1": "has a port that is not a number from 1 to 65535",
        "http://localhost:99999/v1": "has a port that is not a number from 1 to 65535",
        "http://localhost:0/v1": "has a port that is not a number from 1 to 65535",
        "http://[::1/v1": "has a malformed host (Invalid IPv6 URL)",
        "ftp://example.test/v1": "is not an http or https URL",
        # what http.client or the resolver would refuse at every attempt
        "http://127.0.0.1:9/vé": "is not printable ASCII without spaces",
        "http://localhost:9/v1?q=é": "is not printable ASCII without spaces",
        "http://localhost:9/v 1": "is not printable ASCII without spaces",
        "http://local host:9/v1": "is not printable ASCII without spaces",
        "http://localhost:9/v1\x7f": "is not printable ASCII without spaces",
        "http://a..test/v1": "has a host, 'a..test', that the IDNA codec refuses",
        "http://.test/v1": "has a host, '.test', that the IDNA codec refuses",
    }

    @pytest.mark.parametrize("url", MALFORMED_URLS)
    def test_malformed_url_fails_when_built(self, monkeypatch, url):
        message = f"endpoint {url!r} {self.MALFORMED_URLS[url]}"
        with pytest.raises(ValueError) as caught:
            HttpCompletionClient(url=url)
        assert str(caught.value) == message
        monkeypatch.setenv("CLAIMDECOMP_ENDPOINT_URL", url)
        with pytest.raises(ValueError) as caught:
            HttpCompletionClient()
        assert str(caught.value) == message

    def test_file_url_fails_when_built(self, tmp_path):
        target = tmp_path / "f.json"
        target.write_text('{"choices": [{"text": "x"}]}', encoding="utf-8")
        with pytest.raises(ValueError, match="is not an http or https URL"):
            HttpCompletionClient(url=target.as_uri())

    @pytest.mark.parametrize("key", ["abc\ndef", "abc\rdef", "tab\tkey", "kéy"])
    def test_api_key_not_printable_ascii_fails_when_built(self, monkeypatch, key):
        with pytest.raises(ValueError, match="CLAIMDECOMP_API_KEY") as info:
            HttpCompletionClient(url="http://example.test/v1", api_key=key)
        assert key not in str(info.value)
        monkeypatch.setenv("CLAIMDECOMP_API_KEY", key)
        with pytest.raises(ValueError, match="not printable ASCII"):
            HttpCompletionClient(url="http://example.test/v1")

    def test_port_and_ipv6_host_pass(self):
        for url in ("http://localhost:8080/v1", "https://[::1]:443/v1", "http://[::1]/v1",
                    "http://example.test./v1"):
            assert HttpCompletionClient(url=url).url == url


def until(condition, timeout_s):
    """Wait until ``condition()`` holds, such as a throttle decision having
    been taken, or ``timeout_s`` has passed."""
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)


class TestThrottle:
    @pytest.mark.parametrize("width", [2, 4])
    def test_bare_429_with_others_in_flight_is_sent_again_at_once(self, monkeypatch, width):
        # "a" fails while the others are in flight; they answer only once the
        # window has been halved, so "a" cannot have been alone
        others_sent = threading.Barrier(width)
        events = []

        def post(url, payload, headers):
            prompt = payload["prompt"]
            events.append(f"sent {prompt}")
            if prompt == "a" and events.count("sent a") == 1:
                others_sent.wait(timeout=5)
                return reply(status=429)
            if prompt != "a":
                others_sent.wait(timeout=5)
                until(lambda: client.throttle.window < math.inf, timeout_s=2)
            events.append(f"answered {prompt}")
            return OK

        client = http_client(monkeypatch, post, backoff_s=2.0)
        prompts = ["a"] + [f"p{i}" for i in range(1, width)]
        started = time.monotonic()
        with ThreadPoolExecutor(max_workers=width) as pool:
            responses = complete_all(client, [req(p) for p in prompts], pool.map)
        assert [r.text for r in responses] == ["ok"] * width
        assert time.monotonic() - started < 1.0  # no backoff_s wait
        # one decision, a halving and no hold: the window grown below pins its value
        assert client.throttle.resent == 1 and client.throttle.held_until == -math.inf
        # in flight: "a" and its width - 1 others, so the window is max(1, width / 2),
        # which admits "a" again once one of the others has answered
        window = max(1, width / 2)
        resent = events.index("sent a", events.index("sent a") + 1)
        assert any(e.startswith("answered p") for e in events[:resent])
        assert events.count("sent a") == 2 and len(events) == 2 * width + 1
        for _ in range(width):  # each answer grows the window by 1/window
            window += 1 / window
        assert client.throttle.window == pytest.approx(window)

    def test_retry_after_holds_every_worker(self, monkeypatch):
        # "a" names a 1 s Retry-After while "b" is in flight; b's worker
        # then takes "c", which waits for the hold like a's retry
        b_sent = threading.Event()
        sent = []

        def post(url, payload, headers):
            prompt = payload["prompt"]
            sent.append((prompt, time.monotonic()))
            if prompt == "a" and len(sent) <= 2:
                b_sent.wait(timeout=5)
                return reply(status=429, headers={"Retry-After": "1"})
            if prompt == "b":
                b_sent.set()
                until(lambda: client.throttle.held_until > -math.inf, timeout_s=0.5)
            return OK

        client = http_client(monkeypatch, post, backoff_s=0.0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            responses = complete_all(client, [req("a"), req("b"), req("c")], pool.map)
        assert [r.text for r in responses] == ["ok"] * 3
        at = dict(sent)  # each prompt's last send
        failed_at = min(t for prompt, t in sent if prompt == "a")
        # one decision, a's first failure: a hold of its Retry-After and no halving
        assert client.throttle.resent == 1 and client.throttle.window == math.inf
        assert 1.0 <= client.throttle.held_until - failed_at < 1.5
        assert [prompt for prompt, _ in sent].count("a") == 2
        assert at["a"] - failed_at >= 0.99 and at["c"] - failed_at >= 0.99

    def test_endpoint_that_answers_nothing_spends_the_retries(self, monkeypatch):
        # Every attempt is a bare 429. The window falls to 1 within a few
        # failures, so every later failure is alone and spends a retry:
        # the batch ends after about the backoff of every worker's retries.
        width, max_retries, backoff_s = 8, 2, 0.05
        lock, posts = threading.Lock(), []

        def post(url, payload, headers):
            with lock:
                posts.append(payload["prompt"])
            time.sleep(0.005)  # long enough for the first attempts to overlap
            return reply(status=429)

        client = http_client(monkeypatch, post, max_retries=max_retries, backoff_s=backoff_s)
        budget_s = width * backoff_s * (2 ** max_retries - 1)
        started = time.monotonic()
        with pytest.raises(CompletionError, match="retries exhausted: HTTP 429"):
            with ThreadPoolExecutor(max_workers=width) as pool:
                complete_all(client, [req(f"p{i}") for i in range(width)], pool.map)
        assert time.monotonic() - started < 2 * budget_s
        assert client.throttle.window == 1 and client.throttle.in_flight == 0
        # each request: max_retries spent, one that found them spent, and
        # fewer resends that spent nothing than there are workers
        assert width * (max_retries + 1) <= len(posts) < width * (max_retries + 2)

    @pytest.mark.parametrize("failure, raised, message", [
        (reply(status=400, text="maximum context length exceeded"), ContextLengthError,
         "maximum context"),
        (reply(status=400, text="bad request"), CompletionError, "HTTP 400: bad request"),
    ], ids=["window-rejection", "http-400"])
    def test_failure_that_is_not_transient_leaves_the_throttle_as_it_was(
            self, monkeypatch, failure, raised, message):
        clock = FakeClock()
        monkeypatch.setattr("claimdecomp.llm.time", clock)
        post = FakePost([failure, OK], clock)
        client = http_client(monkeypatch, post, backoff_s=5.0)
        client.throttle.window = 2.0  # as after a halving, so that an answer would grow it
        with pytest.raises(raised, match=message):
            send(client, req("a"))
        assert client.throttle.in_flight == 0 and client.throttle.window == 2.0
        # no hold: the next request is admitted with no sleep
        assert send(client, req("b")).text == "ok"
        assert clock.sleeps == [] and post.calls == 2
        assert client.throttle.window == 2.5

    def test_in_flight_count_survives_a_contended_pool(self, policy):
        # Every request fails its first try at once, with more workers than
        # cores and a short switch interval; a lost update of the in-flight
        # count would leave it above 0, or stall the pool on a full window.
        policy(backoff_s=0.0)
        prompts = [f"p{i}" for i in range(64)]
        inner = FlakyClient(*prompts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = complete_all(inner, [req(p) for p in prompts], pool.map)
        finally:
            sys.setswitchinterval(interval)
        assert [r.text for r in responses] == ["out"] * 64
        assert len(inner.prompts) == 128 and inner.throttle.in_flight == 0
        assert inner.throttle.resent == 64


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

    def test_retry_after_then_success(self, loopback, policy):
        server, url = loopback
        server.script = [(429, {"Retry-After": "0"}, "slow down"),
                         (200, {}, '{"choices": [{"text": "hi", "finish_reason": "length"}]}')]
        policy(backoff_s=5.0)
        client = HttpCompletionClient(url=url, model="m", api_key="k")
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

    def test_server_errors_exhaust_retries(self, loopback, policy):
        server, url = loopback
        server.script = [(500, {}, "boom")] * 3
        policy(max_retries=2, backoff_s=0.0)
        with pytest.raises(CompletionError, match="retries exhausted: HTTP 500"):
            send(HttpCompletionClient(url=url), req())
        assert len(server.received) == 3

    def test_rate_limited_endpoint_answers_a_wide_pool(self, policy):
        # 100 requests through a pool of 8 against an endpoint that answers
        # 8 per 100 ms: the window shrinks to what the endpoint answers
        # instead of spending every request's retries on 429s.
        server = ThreadingHTTPServer(("127.0.0.1", 0), RateLimitedHandler)
        server.lock, server.admitted = threading.Lock(), []
        server.limit, server.window_s = 8, 0.1
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        policy(backoff_s=0.1)
        try:
            client = HttpCompletionClient(url=f"http://127.0.0.1:{server.server_address[1]}/v1")
            started = time.monotonic()
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = complete_all(client, [req(f"p{i}") for i in range(100)],
                                         pool.map)
            took_s = time.monotonic() - started
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert [r.text for r in responses] == ["ok"] * 100
        assert took_s < 5.0

    def test_sustained_throttling_slows_the_batch_down(self, policy):
        # 4 answers per 50 ms, and a pool of 4 that could send far more. Each
        # worker that waits through its backoff slows the batch down; sending
        # every unanswered request again each round would spend their three
        # retries within a few rounds.
        server = ThreadingHTTPServer(("127.0.0.1", 0), RateLimitedHandler)
        server.lock, server.admitted = threading.Lock(), []
        server.limit, server.window_s = 4, 0.05
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        policy(backoff_s=0.1)
        try:
            client = HttpCompletionClient(url=f"http://127.0.0.1:{server.server_address[1]}/v1")
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



class KeepAliveHandler(BaseHTTPRequestHandler):
    """An HTTP/1.1 server that counts the connections it accepts, records
    each request's line and headers in ``server.heads``, and each POST's
    target and prompt. It answers ``server.body``; or, with ``server.hold_s``
    set, reads the request and waits that long without answering. With
    ``server.close_after`` set it closes each connection after its first
    response, without saying so. A CONNECT gets no answer: the connection
    closes, so the tunnel fails."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_CONNECT(self):
        self.server.heads.append((self.requestline, dict(self.headers)))
        self.close_connection = True

    def do_POST(self):
        self.server.heads.append((self.requestline, dict(self.headers)))
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.received.append((self.path, self.headers["Host"], payload["prompt"]))
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
    server.heads = []
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

    def test_connection_closed_while_idle_is_sent_once_more_at_once(self, keepalive, policy):
        server, url = keepalive
        server.close_after = True
        policy(backoff_s=5.0)
        client = HttpCompletionClient(url=url)

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
    def test_no_answer_on_a_new_connection_is_not_sent_again(self, keepalive, policy, hold_s):
        server, url = keepalive
        server.hold_s = hold_s
        policy(timeout_s=0.2)
        client = HttpCompletionClient(url=url)
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

    def test_idn_host_goes_out_in_idna_form(self, keepalive, monkeypatch):
        # an http proxy gets the host on the request line, which http.client
        # writes as ASCII, so the client keeps the host in IDNA form
        server, url = keepalive
        monkeypatch.setenv("http_proxy", url.removesuffix("/v1"))
        client = HttpCompletionClient(url="http://Bücher.test:9/v1")
        assert client.url == "http://xn--bcher-kva.test:9/v1"
        assert in_a_thread(lambda: client.complete(req("a"))).text == "ok"
        assert server.received == [
            ("http://xn--bcher-kva.test:9/v1", "xn--bcher-kva.test:9", "a")]

    def test_http_proxy_gets_the_credentials_of_its_url(self, keepalive, monkeypatch):
        server, url = keepalive
        monkeypatch.setenv("http_proxy", url.removesuffix("/v1").replace("//", "//user:p%40ss@"))
        response = in_a_thread(lambda: post_json("http://localhost:9/v1", {"prompt": "a"}, {}))
        assert response[0] == 200
        [(line, headers)] = server.heads
        assert line == "POST http://localhost:9/v1 HTTP/1.1"
        assert headers["Proxy-Authorization"] == f"Basic {base64.b64encode(b'user:p@ss').decode()}"

    def test_https_proxy_gets_a_connect_with_the_credentials(self, keepalive, monkeypatch):
        server, url = keepalive
        monkeypatch.setenv("https_proxy", url.removesuffix("/v1").replace("//", "//user:p%40ss@"))
        with pytest.raises(OSError):  # the proxy closes the tunnel unanswered
            in_a_thread(lambda: post_json("https://localhost:9/v1", {"prompt": "a"}, {}))
        [(line, headers)] = server.heads
        assert re.fullmatch(r"CONNECT localhost:9 HTTP/1\.[01]", line)
        assert headers["Proxy-Authorization"] == f"Basic {base64.b64encode(b'user:p@ss').decode()}"
        assert server.received == []

    @pytest.mark.parametrize("setting, message", [
        ("http://proxy:notaport", "Port could not be cast to integer value as 'notaport'"),
        ("http://:3128", "no host"),
        ("http://[::1", "Invalid IPv6 URL"),
        ("http://proxy..test:3128", "label empty or too long"),
        ("http://pro xy:3128", "URL can't contain control characters"),
    ], ids=["port", "host", "ipv6", "idna", "space"])
    def test_malformed_setting_is_raised_at_once(self, monkeypatch, policy, setting, message):
        monkeypatch.setenv("http_proxy", setting)
        policy(backoff_s=5.0)
        client = HttpCompletionClient(url="http://127.0.0.1:9/v1")
        started = time.monotonic()
        with pytest.raises(ProxySettingError) as raised:
            in_a_thread(lambda: send(client, req("a")))
        assert str(raised.value).startswith(f"http_proxy {setting!r}")
        assert message in str(raised.value)
        # not retried: nothing sent again, no hold
        assert client.throttle.resent == 0 and client.throttle.held_until == -math.inf
        assert time.monotonic() - started < 1.0
        assert client.throttle.in_flight == 0

    def test_no_proxy_host_goes_direct(self, keepalive, monkeypatch):
        server, url = keepalive
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
        monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
        client = HttpCompletionClient(url=url + "/completions")
        assert in_a_thread(lambda: client.complete(req("a"))).text == "ok"
        assert [(path, prompt) for path, _, prompt in server.received] == \
            [("/v1/completions", "a")]
