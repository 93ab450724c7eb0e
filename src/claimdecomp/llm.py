"""Text-completion clients: HTTP endpoint, deterministic mock, disk cache.

Wire contract for the HTTP client is the common completions shape:
POST ``{model, prompt, max_tokens, temperature}`` returning
``{"choices": [{"text": ..., "finish_reason": ...}]}``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import requests

logger = logging.getLogger(__name__)

ENDPOINT_URL_ENV = "CLAIMDECOMP_ENDPOINT_URL"
API_KEY_ENV = "CLAIMDECOMP_API_KEY"

FINISH_STOP = "stop"
FINISH_LENGTH = "length"
FINISH_ERROR = "error"


class CompletionError(RuntimeError):
    """Endpoint failure after retries are exhausted."""


class ContextLengthError(CompletionError):
    """The prompt (plus requested output) does not fit the model window."""


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    prompt: str
    max_tokens: int = 512
    temperature: float = 0.7

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    finish_reason: str = FINISH_STOP


@dataclass(frozen=True)
class GenerationSettings:
    """Sampling parameters plus the window/token-estimation knobs that drive
    prompt budgeting."""

    temperature: float = 0.7
    max_tokens: int = 512
    context_window: int = 4096
    chars_per_token: float = 4.0


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
    return client.complete(completion_request(client, prompt, settings))


def complete_all(client: CompletionClient, requests: Sequence[CompletionRequest],
                 map_fn: MapFn = map) -> list[CompletionResponse]:
    """Responses to ``requests``, in order. The calls go through ``map_fn``,
    so a pool's map overlaps them; a client with its own ``complete_all``,
    such as the cache, decides which requests reach it."""
    batch = getattr(client, "complete_all", None)
    if batch is not None:
        return batch(requests, map_fn)
    return list(map_fn(client.complete, requests))


def cache_key(request: CompletionRequest) -> str:
    payload = json.dumps(vars(request), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed directory of JSON response files; eviction is manual.

    The key covers every request field, so distinct requests can never
    conflate. Each write goes to a temp file of its own and is renamed into
    place, so concurrent writers of one key, in any process, cannot clobber
    each other and readers never see a partial entry. An unreadable entry
    counts as a miss.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(self, request: CompletionRequest) -> CompletionResponse | None:
        path = self._path(cache_key(request))
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return CompletionResponse(text=data["text"], finish_reason=data["finish_reason"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning("unreadable cache entry %s (%s); treated as a miss", path, exc)
            return None

    def put(self, request: CompletionRequest, response: CompletionResponse) -> None:
        key = cache_key(request)
        tmp = self.cache_dir / f"{key}.{os.urandom(8).hex()}.tmp"
        try:
            tmp.write_text(
                json.dumps({**vars(request), **vars(response)}, sort_keys=True,
                           ensure_ascii=False),
                encoding="utf-8",
            )
            os.replace(tmp, self._path(key))
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


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
    response arrives; ``complete`` is its one-request case.
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
        misses = [request for request, hit in found.items() if hit is None]
        if misses and self.cache_only:
            raise CompletionError(f"cache miss in cache-only mode ({len(misses)} requests)")
        for request, response in zip(misses, map_fn(self.inner.complete, misses)):
            self.cache.put(request, response)
            found[request] = response
        return [found[request] for request in requests]


_CONTEXT_LENGTH_MARKERS = ("context_length", "context length", "maximum context",
                           "too many tokens", "prompt is too long")


def _looks_like_context_overflow(status: int, body: str) -> bool:
    if status != 400:
        return False
    lowered = body.lower()
    return any(marker in lowered for marker in _CONTEXT_LENGTH_MARKERS)


def _retry_after_s(resp) -> float | None:
    """The delta-seconds ``Retry-After`` of a response, or None (absent, or
    the HTTP-date form)."""
    value = resp.headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class HttpCompletionClient:
    """Completions-endpoint client with retries.

    Transient failures (connection errors, 429, 5xx) are retried with
    exponential backoff, or after the delay a 429 or 503 names in a
    delta-seconds ``Retry-After``; window rejections surface as
    ContextLengthError so callers can shrink their prompts. The client
    bounds nothing itself: concurrency is the width of the pool whose map
    calls ``complete``.
    """

    def __init__(self, url: str | None = None, model: str = "default",
                 api_key: str | None = None, max_retries: int = 3,
                 backoff_s: float = 0.5, timeout_s: float = 60.0,
                 session: requests.Session | None = None):
        self.url = url or os.environ.get(ENDPOINT_URL_ENV)
        if not self.url:
            raise CompletionError(
                f"no endpoint URL configured (flag/config or {ENDPOINT_URL_ENV})")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self._session = session or requests.Session()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        payload = dict(vars(request))
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = "no attempt made"
        delay_s = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(delay_s)
            delay_s = self.backoff_s * 2 ** attempt
            try:
                resp = self._session.post(
                    self.url, json=payload, headers=headers, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error = f"request failed: {exc}"
                logger.warning("completion attempt %d failed: %s", attempt + 1, exc)
                continue
            if _looks_like_context_overflow(resp.status_code, resp.text):
                raise ContextLengthError(resp.text[:500])
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                logger.warning("completion attempt %d got HTTP %d",
                               attempt + 1, resp.status_code)
                retry_after_s = _retry_after_s(resp) if resp.status_code in (429, 503) else None
                if retry_after_s is not None:
                    delay_s = retry_after_s
                continue
            if resp.status_code != 200:
                raise CompletionError(f"HTTP {resp.status_code}: {resp.text[:500]}")
            try:
                choice = resp.json()["choices"][0]
                return CompletionResponse(
                    text=choice.get("text", ""),
                    finish_reason=choice.get("finish_reason", FINISH_STOP),
                )
            except (KeyError, IndexError, ValueError) as exc:
                raise CompletionError(f"malformed endpoint response: {exc}") from exc
        raise CompletionError(f"retries exhausted: {last_error}")
