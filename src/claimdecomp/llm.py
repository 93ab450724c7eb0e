"""Text-completion clients: HTTP endpoint, deterministic mock, disk cache.

Wire contract for the HTTP client is the common completions shape:
POST ``{model, prompt, max_tokens, temperature}`` returning
``{"choices": [{"text": ..., "finish_reason": ...}]}``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
import typing
import urllib.parse
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Protocol

from .corpus import CorpusError, _check_fields, _json_object, _replacing

if typing.TYPE_CHECKING:  # imported where a request is sent, so a run that sends none skips it
    import http.client

logger = logging.getLogger(__name__)

ENDPOINT_URL_ENV = "CLAIMDECOMP_ENDPOINT_URL"
API_KEY_ENV = "CLAIMDECOMP_API_KEY"

FINISH_STOP = "stop"

# Characters per token, the one estimate behind every prompt budget.
CHARS_PER_TOKEN = 4.0


class CompletionError(RuntimeError):
    """Endpoint failure."""


class ContextLengthError(CompletionError):
    """The prompt (plus requested output) does not fit the model window."""

    request: CompletionRequest | None = None  # the rejected request, set in a batch


class TransientError(CompletionError):
    """One attempt got no response, a 429 or a 5xx, so the request may be
    sent again; ``retry_after_s`` is the delay a 429 or 503 named, if any."""

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    prompt: str
    max_tokens: int = 512
    temperature: float = 0.7

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ValueError("temperature must be finite and >= 0")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    finish_reason: str = FINISH_STOP


_RESPONSE_TYPES = typing.get_type_hints(CompletionResponse)
_REJECTED = "context_length_error"  # a cache entry's field for a window rejection


@dataclass(frozen=True)
class GenerationSettings:
    """Sampling parameters plus the model window that prompt budgeting
    fills."""

    temperature: float = 0.7
    max_tokens: int = 512
    context_window: int = 4096


class CompletionClient(Protocol):
    model: str

    def complete(self, request: CompletionRequest) -> CompletionResponse: ...


# An ordered map, such as the builtin or a thread pool's: results come back
# in the order of the items, however the calls overlap.
MapFn = Callable[[Callable, Iterable], Iterator]


def completion_request(client: CompletionClient, prompt: str,
                       settings: GenerationSettings) -> CompletionRequest:
    return CompletionRequest(
        model=getattr(client, "model", "default"),
        prompt=prompt,
        max_tokens=settings.max_tokens,
        temperature=settings.temperature,
    )


def complete_text(client: CompletionClient, prompt: str,
                  settings: GenerationSettings) -> CompletionResponse:
    """One request as a batch of one: its retries wait in this thread."""
    return complete_all(client, [completion_request(client, prompt, settings)])[0]


def complete_all(client: CompletionClient, requests: Sequence[CompletionRequest],
                 map_fn: MapFn = map) -> list[CompletionResponse]:
    """Responses to ``requests``, in order. The calls go through ``map_fn``,
    so a pool's map overlaps them, in the rounds of ``_answers``; a client
    with its own ``complete_all``, such as the cache, decides which requests
    reach it."""
    batch = getattr(client, "complete_all", None)
    if batch is not None:
        return batch(requests, map_fn)
    answers = dict(_answers(client, requests, map_fn))
    return [answers[position] for position in range(len(requests))]


def _attempt(client: CompletionClient, next_round: threading.Lock, tried: int,
             request: CompletionRequest) -> CompletionResponse | tuple[float, int]:
    """The response to ``request``, tried ``tried`` times before; or, once a
    transient failure is the first to take ``next_round``, the
    ``time.monotonic()`` its retry is due and the tries so far. Any other
    transient failure is retried here after the client's ``retry_delay_s``."""
    retry_delay_s = getattr(client, "retry_delay_s", None)
    while True:
        try:
            return client.complete(request)
        except ContextLengthError as exc:
            exc.request = request
            raise
        except TransientError as exc:
            delay_s = retry_delay_s(exc, tried) if retry_delay_s else None
            if delay_s is None:
                raise CompletionError(f"retries exhausted: {exc}") from exc
            tried += 1
            logger.warning("completion attempt %d failed (%s); retry due in %.2f s",
                           tried, exc, delay_s)
            if next_round.acquire(blocking=False):
                return time.monotonic() + delay_s, tried
            time.sleep(delay_s)


def _answers(client: CompletionClient, requests: Sequence[CompletionRequest],
             map_fn: MapFn) -> Iterator[tuple[int, CompletionResponse]]:
    """(position, response) for each of ``requests``, as the responses come
    back. The requests go through ``map_fn`` in rounds. A request that fails
    transiently is due again the client's ``retry_delay_s`` after its
    failure. The first to fail in a round makes up the next round, sent once
    it is due, so its worker moves on to the rest of the batch and the wait
    is in the calling thread. Any other that fails in the round is retried by
    its own worker after the delay: each such wait takes a worker out of the
    pool, so a throttled endpoint slows the batch down instead of using up
    its retries. Any other error ends the batch."""
    pending, tried, due_at = list(range(len(requests))), 0, -math.inf
    while pending:
        wait_s = due_at - time.monotonic()
        if wait_s > 0:
            time.sleep(wait_s)
        batch, pending = pending, []
        outcomes = map_fn(partial(_attempt, client, threading.Lock(), tried),
                          [requests[position] for position in batch])
        for position, outcome in zip(batch, outcomes):
            if isinstance(outcome, CompletionResponse):
                yield position, outcome
            else:
                pending, (due_at, tried) = [position], outcome


def cache_key(request: CompletionRequest) -> str:
    payload = json.dumps(vars(request), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed directory of JSON response files; eviction is manual.

    The key covers every request field, so distinct requests can never
    conflate. Each write goes to a temp file of its own and is renamed into
    place, so concurrent writers of one key, in any process, cannot clobber
    each other and readers never see a partial entry. An unreadable entry
    counts as a miss. A window rejection is an entry with a
    ``context_length_error`` message in place of the response fields.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(self, request: CompletionRequest) -> CompletionResponse | ContextLengthError | None:
        path = self._path(cache_key(request))
        where = f"cache entry {path}"
        try:
            entry = _json_object(where, path.read_bytes())
            rejected = _REJECTED in entry
            _check_fields(where, entry, {_REJECTED: str} if rejected else _RESPONSE_TYPES)
        except FileNotFoundError:
            return None
        except CorpusError as exc:
            logger.warning("unreadable %s; treated as a miss", exc)
            return None
        if rejected:
            return ContextLengthError(entry[_REJECTED])
        return CompletionResponse(**{name: entry[name] for name in _RESPONSE_TYPES})

    def put(self, request: CompletionRequest,
            outcome: CompletionResponse | ContextLengthError) -> None:
        fields = (vars(outcome) if isinstance(outcome, CompletionResponse)
                  else {_REJECTED: str(outcome)})
        with _replacing(self._path(cache_key(request))) as tmp:
            tmp.write_text(
                json.dumps({**vars(request), **fields}, sort_keys=True, ensure_ascii=False),
                encoding="utf-8",
            )


class MockCompletionClient:
    """Deterministic offline client.

    ``table`` maps exact prompts to completions. ``rules`` is an ordered list
    of ``(substring, completion)`` pairs; the first rule whose key occurs in
    the prompt wins. Prompts containing any ``length_error_substrings`` entry
    raise ContextLengthError, mimicking an endpoint window rejection.
    """

    model = "mock"

    def __init__(self, table: dict[str, str] | None = None, default: str = "",
                 rules: list[tuple[str, str]] | None = None,
                 length_error_substrings: tuple[str, ...] = ()):
        self.table = dict(table or {})
        self.default = default
        self.rules = list(rules or [])
        self.length_error_substrings = tuple(length_error_substrings)
        self.calls: list[CompletionRequest] = []

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.calls.append(request)
        for marker in self.length_error_substrings:
            if marker in request.prompt:
                raise ContextLengthError("mock: prompt exceeds context window")
        if request.prompt in self.table:
            return CompletionResponse(text=self.table[request.prompt])
        for key, text in self.rules:
            if key in request.prompt:
                return CompletionResponse(text=text)
        return CompletionResponse(text=self.default)


class CachingClient:
    """Wrap any client with an on-disk response cache.

    Cache hits never reach the inner client, so a warm cache makes a whole
    run reproducible with zero network calls. ``cache_only`` turns misses
    into errors instead of forwarding them.

    ``complete_all`` reads the cache in the calling thread and sends only
    the distinct misses through the map, writing each to the cache as its
    response arrives, in every round of retries; ``complete`` is its
    one-request case. A window rejection is cached too and raised again on
    a hit, so a replay backs off as the first run did.
    """

    def __init__(self, inner: CompletionClient, cache_dir: str | Path,
                 cache_only: bool = False):
        self.inner = inner
        self.cache = ResponseCache(cache_dir)
        self.cache_only = cache_only

    @property
    def model(self) -> str:
        return getattr(self.inner, "model", "default")

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        return self.complete_all([request])[0]

    def complete_all(self, requests: Sequence[CompletionRequest],
                     map_fn: MapFn = map) -> list[CompletionResponse]:
        found = {request: self.cache.get(request) for request in dict.fromkeys(requests)}
        if rejected := [hit for hit in found.values() if isinstance(hit, ContextLengthError)]:
            raise rejected[0]
        misses = [request for request, hit in found.items() if hit is None]
        if misses and self.cache_only:
            raise CompletionError(f"cache miss in cache-only mode ({len(misses)} requests)")
        try:
            for position, response in _answers(self.inner, misses, map_fn):
                self.cache.put(misses[position], response)
                found[misses[position]] = response
        except ContextLengthError as exc:
            self.cache.put(exc.request, exc)
            raise
        return [found[request] for request in requests]


_CONTEXT_LENGTH_MARKERS = ("context_length", "context length", "maximum context",
                           "too many tokens", "prompt is too long")


def _looks_like_context_overflow(status: int, body: str) -> bool:
    if status != 400:
        return False
    lowered = body.lower()
    return any(marker in lowered for marker in _CONTEXT_LENGTH_MARKERS)


def _retry_after_s(headers: http.client.HTTPMessage) -> float | None:
    """The delta-seconds ``Retry-After`` of a response, or None (absent, or
    the HTTP-date form)."""
    value = headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class _Connections(dict):
    """One thread's open connections by (scheme, host, port, timeout): each
    is the connection and, when it goes through an http proxy, the headers
    that proxy gets, or else None. They close when the thread ends."""

    def __del__(self) -> None:
        for connection, _ in self.values():
            connection.close()


_local = threading.local()


def _connect(parts: urllib.parse.SplitResult,
             timeout_s: float) -> tuple[http.client.HTTPConnection, dict[str, str] | None]:
    """A ``_Connections`` entry for the origin of ``parts``, routed as
    ``urlopen`` routes it by the ``*_proxy`` environment: an http proxy
    gets absolute-form targets, and an https one a CONNECT tunnel."""
    import base64
    import http.client
    import urllib.request

    connection_class = (http.client.HTTPSConnection if parts.scheme == "https"
                        else http.client.HTTPConnection)
    # a port of None would have http.client read an IPv6 host's last group as one
    port = parts.port or connection_class.default_port
    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
        return connection_class(parts.hostname, port, timeout=timeout_s), None
    proxy = urllib.parse.urlsplit(proxy if "://" in proxy else f"//{proxy}")
    proxy_headers = {}
    if proxy.username and proxy.password:
        credentials = ":".join(map(urllib.parse.unquote, (proxy.username, proxy.password)))
        proxy_headers["Proxy-Authorization"] = \
            f"Basic {base64.b64encode(credentials.encode()).decode()}"
    connection = connection_class(proxy.hostname, proxy.port or connection_class.default_port,
                                  timeout=timeout_s)
    if parts.scheme == "http":
        return connection, proxy_headers
    connection.set_tunnel(parts.hostname, port, proxy_headers)
    return connection, None


def post_json(url: str, payload: dict, headers: dict[str, str],
              timeout_s: float) -> tuple[int, http.client.HTTPMessage, str]:
    """POST ``payload`` as JSON; the response's status, headers and body text,
    error statuses included. No response raises OSError or HTTPException.

    Each thread sends its requests to an origin over one HTTP/1.1 keep-alive
    connection. A kept-alive connection that fails before any status line
    was closed by the server while idle, so the request goes once more over
    a new one, at once: that is not an attempt of the caller's retries. Any
    other failure, a timeout or one on a new connection, is raised."""
    parts = urllib.parse.urlsplit(url)
    connections = getattr(_local, "connections", None)
    if connections is None:
        connections = _local.connections = _Connections()
    try:
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http or https URL: {url!r}")
        key = (parts.scheme, parts.hostname, parts.port, timeout_s)
        body = json.dumps(payload).encode()
        while True:
            if key not in connections:
                connections[key] = _connect(parts, timeout_s)
            connection, proxy_headers = connections[key]
            target = urllib.parse.urlunsplit(
                ("", "", parts.path or "/", parts.query, "") if proxy_headers is None
                else parts._replace(fragment=""))
            reused, answered = connection.sock is not None, False
            try:
                connection.request("POST", target, body, {
                    "Content-Type": "application/json", **(proxy_headers or {}), **headers})
                with connection.getresponse() as response:
                    answered = True
                    # read to the end, whatever the status, so the connection can go on
                    return (response.status, response.headers,
                            response.read().decode("utf-8", "replace"))
            except BaseException as exc:
                connections.pop(key)[0].close()
                if not (reused and not answered
                        and isinstance(exc, (ConnectionResetError, BrokenPipeError))):
                    raise
    except ValueError as exc:  # such a URL, or a header http.client refuses, gets no response
        from urllib.error import URLError

        raise URLError(exc) from exc


class HttpCompletionClient:
    """Completions-endpoint client.

    ``complete`` makes one attempt. A transient failure (no response, 429,
    5xx) raises TransientError, and ``complete_all`` and ``complete_text``
    retry it up to ``max_retries`` times, after exponential backoff or the
    delay a 429 or 503 names in a delta-seconds ``Retry-After``; window
    rejections surface as ContextLengthError so callers can shrink their
    prompts. The client bounds nothing itself: concurrency is the width of
    the pool whose map calls ``complete``.
    """

    def __init__(self, url: str | None = None, model: str = "default",
                 api_key: str | None = None, max_retries: int = 3,
                 backoff_s: float = 0.5, timeout_s: float = 60.0):
        self.url = url or os.environ.get(ENDPOINT_URL_ENV)
        if not self.url:
            raise CompletionError(
                f"no endpoint URL configured (flag/config or {ENDPOINT_URL_ENV})")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s

    def retry_delay_s(self, error: TransientError, attempt: int) -> float | None:
        """Seconds from the failure of ``attempt`` (0 for the first) to the
        next attempt, or None once the retries are spent."""
        if attempt >= self.max_retries:
            return None
        if error.retry_after_s is not None:
            return error.retry_after_s
        return self.backoff_s * 2 ** attempt

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        import http.client

        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        try:
            status, resp_headers, body = post_json(self.url, vars(request), headers,
                                                   self.timeout_s)
        except (OSError, http.client.HTTPException) as exc:
            raise TransientError(f"request failed: {exc!r}") from exc
        if _looks_like_context_overflow(status, body):
            raise ContextLengthError(body[:500])
        if status == 429 or status >= 500:
            raise TransientError(
                f"HTTP {status}", _retry_after_s(resp_headers) if status in (429, 503) else None)
        if status != 200:
            raise CompletionError(f"HTTP {status}: {body[:500]}")
        try:
            choice = json.loads(body)["choices"][0]
            text, finish_reason = choice["text"], choice.get("finish_reason", FINISH_STOP)
        except (ValueError, LookupError, TypeError) as exc:
            raise CompletionError(f"malformed endpoint response: {exc!r}") from exc
        if not isinstance(text, str) or not isinstance(finish_reason, str):
            raise CompletionError(f"malformed endpoint response: {body[:500]}")
        return CompletionResponse(text=text, finish_reason=finish_reason)
