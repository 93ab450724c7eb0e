"""Text-completion clients: HTTP endpoint, deterministic mock, disk cache.

Wire contract for the HTTP client is the common completions shape:
POST ``{model, prompt, max_tokens, temperature}`` returning
``{"choices": [{"text": ..., "finish_reason": ...}]}``.
"""

from __future__ import annotations

import json
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

from .corpus import CorpusError, _check_fields, _json_object

if typing.TYPE_CHECKING:  # imported where a request is sent, so a run that sends none skips it
    import http.client

ENDPOINT_URL_ENV = "CLAIMDECOMP_ENDPOINT_URL"
API_KEY_ENV = "CLAIMDECOMP_API_KEY"

FINISH_STOP = "stop"

# Characters per token, the one estimate behind every prompt budget.
CHARS_PER_TOKEN = 4.0

# The HTTP client's policy, read where it applies: one request's retries, the
# first hold, doubled for each retry spent, and each attempt's socket timeout.
MAX_RETRIES = 3
BACKOFF_S = 0.5
TIMEOUT_S = 60.0


class CompletionError(RuntimeError):
    """Endpoint failure."""


class ContextLengthError(CompletionError):
    """The prompt (plus requested output) does not fit the model window."""


class ProxySettingError(Exception):
    """A malformed ``*_proxy`` variable: no attempt can succeed, so none is retried."""


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


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    finish_reason: str = FINISH_STOP


_RESPONSE_TYPES = typing.get_type_hints(CompletionResponse)
_REJECTED = "context_length_error"  # a cache entry's field for a window rejection
_KEY_PREFIX = b'{"key": "'  # how every cache log line starts; its key follows
_KEY_AT, _KEY_LEN = len(_KEY_PREFIX), 64  # a sha256 hex digest
Outcome = CompletionResponse | ContextLengthError  # what came back for one request


@dataclass(frozen=True)
class GenerationSettings:
    """Sampling parameters plus the model window that prompt budgeting
    fills. Every request is built from one of the program's constants,
    ``decompose.DECOMPOSER_SETTINGS`` or ``validate.VALIDATOR_SETTINGS``."""

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
        model=client.model,
        prompt=prompt,
        max_tokens=settings.max_tokens,
        temperature=settings.temperature,
    )


def complete_text(client: CompletionClient, prompt: str,
                  settings: GenerationSettings) -> CompletionResponse:
    """One request as a batch of one, sent from this thread: its retries go
    through the client's throttle like any other request's."""
    return complete_all(client, [completion_request(client, prompt, settings)])[0]


def complete_all(client: CompletionClient, requests: Sequence[CompletionRequest],
                 map_fn: MapFn = map) -> list[CompletionResponse]:
    """Responses to ``requests``, in order. ``map_fn`` sends each through
    ``_send``, so a pool's map overlaps them; a client with its own
    ``complete_all``, such as the cache, decides which requests reach it.
    The first window rejection, in request order, is raised after them all."""
    batch = getattr(client, "complete_all", None)
    if batch is not None:
        return batch(requests, map_fn)
    return _responses(list(map_fn(partial(_send, client), requests)))


def _send(client: CompletionClient, request: CompletionRequest) -> Outcome:
    """The response to ``request`` or its window rejection, retried by the
    client's ``throttle``; a client without one makes one attempt."""
    throttle = getattr(client, "throttle", None)
    try:
        return throttle.send(client.complete, request) if throttle else client.complete(request)
    except ContextLengthError as exc:
        return exc


def _responses(outcomes: list[Outcome]) -> list[CompletionResponse]:
    """``outcomes`` as responses, or else the first window rejection raised."""
    if rejected := [item for item in outcomes if isinstance(item, ContextLengthError)]:
        raise rejected[0]
    return outcomes


class Throttle:
    """When one client's requests may be sent, shared by every thread that
    sends through the client: a window on how many are in flight, and a hold
    on every worker.

    The window starts unbounded, so the pool's width is the only cap, and
    each answer grows it by 1/window. A transient failure with no
    ``Retry-After`` while other requests are in flight halves it to
    max(1, in-flight / 2), counting the failed one, and the request is sent
    again as soon as the window admits it: no wait, no retry spent. The same
    failure with nothing else in flight holds every worker for ``BACKOFF_S *
    2 ** tries``, and a ``Retry-After`` holds every worker until the time it
    names; each spends one of the request's ``MAX_RETRIES``. A resend that
    spends nothing needs another request in flight, and only answers grow
    the window, so against an endpoint that answers nothing the window
    falls to 1 within log2(width) halvings and every later failure spends a
    retry. Waits go through ``time.sleep``. ``resent`` counts the failures
    sent again: the endpoint's answers fix it, while whether each one halved
    the window or held the workers depends on timing.
    """

    def __init__(self) -> None:
        self.window = math.inf
        self.in_flight = 0
        self.held_until = -math.inf
        self.resent = 0
        self._changed = threading.Condition()

    def send(self, complete: Callable[[CompletionRequest], CompletionResponse],
             request: CompletionRequest) -> CompletionResponse:
        """``complete(request)``, attempted as the rule above admits it."""
        tries = 0
        while True:
            self._admit()
            try:
                response = complete(request)
            except TransientError as exc:
                tries += self._failed(exc, tries)
                continue
            except BaseException:
                self._leave(answered=False)
                raise
            self._leave(answered=True)
            return response

    def _admit(self) -> None:
        """Wait until no hold is on and the window has room, then count one
        more request in flight."""
        while True:
            with self._changed:
                while self.in_flight >= self.window:
                    self._changed.wait()
                wait_s = self.held_until - time.monotonic()
                if wait_s <= 0:
                    self.in_flight += 1
                    return
            time.sleep(wait_s)

    def _leave(self, answered: bool) -> None:
        with self._changed:
            self.in_flight -= 1
            if answered:
                self.window += 1 / self.window
            self._changed.notify_all()

    def _failed(self, error: TransientError, tries: int) -> int:
        """Count a request tried ``tries`` times before out of flight after
        ``error``, and apply the rule: 1 if that spent a retry, else 0."""
        with self._changed:
            in_flight, self.in_flight = self.in_flight, self.in_flight - 1
            self._changed.notify_all()
            halve = error.retry_after_s is None and in_flight > 1
            if not halve and tries >= MAX_RETRIES:
                raise CompletionError(f"retries exhausted: {error}") from error
            self.resent += 1
            if halve:
                self.window = min(self.window, max(1.0, in_flight / 2))
                return 0
            hold_s = (BACKOFF_S * 2 ** tries if error.retry_after_s is None
                      else error.retry_after_s)
            self.held_until = max(self.held_until, time.monotonic() + hold_s)
            return 1


def cache_key(request: CompletionRequest) -> str:
    import hashlib  # here, as http.client is, so a run without a cache never loads it

    payload = json.dumps(vars(request), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only log of outcomes, ``responses.jsonl`` in ``cache_dir``;
    eviction is manual.

    Each line is one entry: ``{"key": <cache_key>, ...}``, then the request
    and response fields, sorted, with a ``context_length_error`` message in
    place of the response for a window rejection. The key covers every
    request field, so distinct requests never conflate. The log is read
    once, when the cache is built, and indexed by key: a later line for a
    key wins, a line is parsed when it is read, and one that is no entry is
    a miss whose key ``unreadable`` collects. A last line with no newline, a
    write cut short, is left out, and ``torn`` counts it. Each put is one
    ``O_APPEND`` write of one line, so writers in any process never
    interleave within an entry; the first put opens the log, so a cache
    that never puts makes no file. A directory with per-file
    ``*.json`` entries, an older layout, and no log raises CorpusError.
    """

    def __init__(self, cache_dir: str | Path):
        self._fd: int | None = None
        self._lock = threading.Lock()
        self.unreadable: set[bytes] = set()
        self.path = Path(cache_dir) / "responses.jsonl"
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            if next(self.path.parent.glob("*.json"), None):
                raise CorpusError(f"{self.path.parent} holds cache entries in an older per-file "
                                  f"layout; remove it or use another --cache-dir") from None
            data = b""
        *lines, torn = data.split(b"\n")
        self.torn = int(torn != b"")  # the first put ends that line before its own
        # the key sits at a fixed offset, so lines are indexed without parsing
        self._lines = {line[_KEY_AT:_KEY_AT + _KEY_LEN]: line
                       for line in lines if line.startswith(_KEY_PREFIX)}

    def get(self, request: CompletionRequest) -> Outcome | None:
        key = cache_key(request).encode()
        line = self._lines.get(key)
        if line is None:
            return None
        try:
            entry = _json_object("", line)
            rejected = _REJECTED in entry
            _check_fields("", entry, {_REJECTED: str} if rejected else _RESPONSE_TYPES)
        except CorpusError:
            with self._lock:  # the pool's workers read at once
                self.unreadable.add(key)
            return None
        if rejected:
            return ContextLengthError(entry[_REJECTED])
        return CompletionResponse(**{name: entry[name] for name in _RESPONSE_TYPES})

    def put(self, request: CompletionRequest, outcome: Outcome) -> None:
        key = cache_key(request)
        fields = (vars(outcome) if isinstance(outcome, CompletionResponse)
                  else {_REJECTED: str(outcome)})
        entry = dict(sorted({**vars(request), **fields}.items()))
        line = json.dumps({"key": key, **entry}, ensure_ascii=False).encode("utf-8") + b"\n"
        if os.write(self._log(), line) != len(line):
            raise OSError(f"short write to {self.path}")
        self._lines[key.encode()] = line

    def _log(self) -> int:
        """The log's descriptor, opened for appending by the first put."""
        with self._lock:
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                if self.torn:
                    os.write(self._fd, b"\n")
            return self._fd

    def __del__(self) -> None:
        if self._fd is not None:
            os.close(self._fd)


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
    the distinct misses through the map; the worker that gets an outcome
    writes it to the cache, so a batch that fails keeps every answer it got.
    ``complete`` is its one-request case. A window rejection is an outcome
    like a response: cached, and raised again on a hit, so a replay backs
    off as the first run did.
    """

    def __init__(self, inner: CompletionClient, cache_dir: str | Path,
                 cache_only: bool = False):
        self.inner = inner
        self.model = inner.model
        self.cache = ResponseCache(cache_dir)
        self.cache_only = cache_only

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        return self.complete_all([request])[0]

    def complete_all(self, requests: Sequence[CompletionRequest],
                     map_fn: MapFn = map) -> list[CompletionResponse]:
        found = {request: self.cache.get(request) for request in dict.fromkeys(requests)}
        misses = [request for request, hit in found.items() if hit is None]
        if misses and self.cache_only:
            raise CompletionError(f"cache miss in cache-only mode ({len(misses)} requests)")
        found.update(zip(misses, map_fn(self._fetch, misses)))
        return _responses([found[request] for request in requests])

    def _fetch(self, request: CompletionRequest) -> Outcome:
        outcome = _send(self.inner, request)
        self.cache.put(request, outcome)
        return outcome


_CONTEXT_LENGTH_MARKERS = ("context_length", "context length", "maximum context",
                           "too many tokens", "prompt is too long")


def _looks_like_context_overflow(status: int, body: str) -> bool:
    if status != 400:
        return False
    lowered = body.lower()
    return any(marker in lowered for marker in _CONTEXT_LENGTH_MARKERS)


def _retry_after_s(headers: http.client.HTTPMessage) -> float | None:
    """The delay a response's ``Retry-After`` names, in delta-seconds or as an
    HTTP-date (RFC 9110, section 10.2.3), never below 0; None when it is
    absent or unreadable."""
    value = headers.get("Retry-After", "").strip()
    if value.isascii() and value.isdigit():
        return float(value)
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        date = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if date.tzinfo is None:  # an HTTP-date is always GMT; "-0000" parses as naive
        date = date.replace(tzinfo=timezone.utc)
    return max(0.0, (date - datetime.now(timezone.utc)).total_seconds())


def _checked_endpoint(url: str | None) -> str:
    """``url``, an IDN host put in IDNA form, if it is http or https with a
    host and a port from 1 to 65535, if it names one, and is then printable
    ASCII with no space, as a request line and a CONNECT must be; else a
    ValueError naming the first of these that it is not."""
    if not url:
        raise ValueError("no endpoint configured")
    try:
        parts = urllib.parse.urlsplit(url)
    except ValueError as exc:  # a bracketed host left open
        raise ValueError(f"endpoint {url!r} has a malformed host ({exc})") from None
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"endpoint {url!r} is not an http or https URL")
    if not parts.hostname:
        raise ValueError(f"endpoint {url!r} names no host")
    try:
        port_ok = parts.port != 0  # raises ValueError for one that does not parse or is too big
    except ValueError:
        port_ok = False
    if not port_ok:
        raise ValueError(f"endpoint {url!r} has a port that is not a number from 1 to 65535")
    try:
        parts.hostname.encode("idna")  # the codec as the resolver applies it
    except UnicodeError:
        raise ValueError(f"endpoint {url!r} has a host, {parts.hostname!r}, that the IDNA "
                         "codec refuses") from None
    host = parts.netloc.rpartition("@")[2]
    sent = url if host.isascii() else url.replace(host, host.encode("idna").decode(), 1)
    if not (sent.isascii() and sent.isprintable() and " " not in sent):
        raise ValueError(f"endpoint {url!r} is not printable ASCII without spaces")
    return sent


class _Connections(dict):
    """One thread's open connections by (scheme, host, port): each
    is the connection and, when it goes through an http proxy, the headers
    that proxy gets, or else None. They close when the thread ends."""

    def __del__(self) -> None:
        for connection, _ in self.values():
            connection.close()


_local = threading.local()


def _connect(parts: urllib.parse.SplitResult) -> tuple[http.client.HTTPConnection,
                                                       dict[str, str] | None]:
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
    setting = urllib.request.getproxies().get(parts.scheme)
    if not setting or urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
        return connection_class(parts.hostname, port, timeout=TIMEOUT_S), None
    try:
        proxy = urllib.parse.urlsplit(setting if "://" in setting else f"//{setting}")
        if not proxy.hostname:
            raise ValueError("no host")
        proxy.hostname.encode("idna")  # as the resolver will
        # ValueError for a port that does not parse, InvalidURL for a host with a space
        connection = connection_class(proxy.hostname, proxy.port or connection_class.default_port,
                                      timeout=TIMEOUT_S)
    except (ValueError, http.client.InvalidURL) as exc:
        raise ProxySettingError(f"{parts.scheme}_proxy {setting!r}: {exc}") from None
    proxy_headers = {}
    if proxy.username and proxy.password:
        credentials = ":".join(map(urllib.parse.unquote, (proxy.username, proxy.password)))
        proxy_headers["Proxy-Authorization"] = \
            f"Basic {base64.b64encode(credentials.encode()).decode()}"
    if parts.scheme == "http":
        return connection, proxy_headers
    connection.set_tunnel(parts.hostname, port, proxy_headers)
    return connection, None


def post_json(url: str, payload: dict,
              headers: dict[str, str]) -> tuple[int, http.client.HTTPMessage, str]:
    """POST ``payload`` as JSON to a ``url`` its client checked when built;
    the status, headers and body text, error statuses included. No response
    raises OSError or HTTPException.

    Each thread sends its requests to an origin over one HTTP/1.1 keep-alive
    connection. A kept-alive connection that fails before any status line
    was closed by the server while idle, so the request goes once more over
    a new one, at once: that is not an attempt of the caller's retries. Any
    other failure, a timeout or one on a new connection, is raised, and a
    malformed ``*_proxy`` variable raises ProxySettingError."""
    parts = urllib.parse.urlsplit(url)
    connections = getattr(_local, "connections", None)
    if connections is None:
        connections = _local.connections = _Connections()
    key = (parts.scheme, parts.hostname, parts.port)
    body = json.dumps(payload).encode()
    while True:
        if key not in connections:
            connections[key] = _connect(parts)
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


class HttpCompletionClient:
    """Completions-endpoint client. Building it raises ValueError for a URL
    that ``_checked_endpoint`` refuses, or an API key that is not printable
    ASCII; ``MAX_RETRIES``, ``BACKOFF_S`` and ``TIMEOUT_S`` are its policy.

    ``complete`` makes one attempt. A transient failure (no response, 429,
    5xx) raises TransientError, with the delay a 429 or 503 names in its
    ``Retry-After``; a window rejection raises ContextLengthError, so callers
    can shrink their prompts. ``complete_all`` and ``complete_text`` send
    every request through the client's one ``Throttle``, shared by every
    thread that sends through it (see ``Throttle``). The width of the pool
    whose map sends the requests is the only cap on concurrency.
    """

    def __init__(self, url: str | None = None, model: str = "default",
                 api_key: str | None = None):
        self.url = _checked_endpoint(url or os.environ.get(ENDPOINT_URL_ENV))
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if self.api_key and not (self.api_key.isascii() and self.api_key.isprintable()):
            raise ValueError(f"the API key ({API_KEY_ENV} or api_key) is not printable ASCII")
        self.throttle = Throttle()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        import http.client

        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        try:
            status, resp_headers, body = post_json(self.url, vars(request), headers)
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
