"""Stub completions endpoint for the pipeline benchmark.

Answers every prompt deterministically from the prompt itself:

* a decomposition prompt (its last two lines are the method instruction and
  the target sentence) gets "- " subclaim lines cut from the sentence, with a
  split that depends on the instruction unless the sentence is one of the
  "shared" ones;
* a validation prompt ("Claim: ...\\nTrue or False?") gets a verdict chosen by
  the claim alone, about 3% of them unparseable.

Faults are injected at fixed shares: every ``--retry-every``-th first attempt
gets a 429, and decomposition prompts longer than ``--window-chars`` get a
context-length 400. Only answered (200) requests sleep ``--latency-ms``.

Run as a script; it prints ``PORT <n>`` once listening on 127.0.0.1. ``GET
/stats`` returns the counters since the last ``GET /stats`` and resets them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SHARED_PERCENT = 30
NOTHING_MODULUS = 50  # 1 in 50 sentences decomposes to nothing
UNPARSEABLE_PERCENT = 3
TRUE_PERCENT = 60
VERDICT_SUFFIX = "True or False?"
CLAIM_PREFIX = "Claim: "
UNPARSEABLE_ANSWER = "Perhaps."


def _hash(*parts: str) -> int:
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def decomposes_to_nothing(sentence: str) -> bool:
    return _hash("nothing", sentence) % NOTHING_MODULUS == 0


def pieces(instruction: str, sentence: str) -> int:
    """How many subclaims the stub cuts ``sentence`` into for ``instruction``."""
    if decomposes_to_nothing(sentence):
        return 0
    if _hash("shared", sentence) % 100 < SHARED_PERCENT:
        count = 1 + _hash("k", sentence) % 4
    else:
        count = 1 + _hash("k", instruction, sentence) % 4
    return min(count, len(sentence.split()))


def decomposition(instruction: str, sentence: str) -> list[str]:
    """Subclaims the stub answers for (instruction, sentence): the sentence's
    words cut into ``pieces`` contiguous groups, each ending in a period."""
    words = sentence.rstrip(".").split()
    count = pieces(instruction, sentence)
    bounds = [round(i * len(words) / count) for i in range(count + 1)] if count else [0]
    return [" ".join(words[lo:hi]) + "." for lo, hi in zip(bounds, bounds[1:])]


def verdict(claim: str) -> str:
    roll = _hash("verdict", claim) % 100
    if roll < UNPARSEABLE_PERCENT:
        return UNPARSEABLE_ANSWER
    return "True." if roll < UNPARSEABLE_PERCENT + TRUE_PERCENT else "False."


def is_validation_prompt(prompt: str) -> bool:
    return prompt.endswith("\n" + VERDICT_SUFFIX)


def answer(prompt: str) -> str:
    lines = prompt.split("\n")
    if is_validation_prompt(prompt):
        return verdict(lines[-2][len(CLAIM_PREFIX):])
    return "\n".join(f"- {claim}" for claim in decomposition(lines[-2], lines[-1]))


class StubState:
    """Counters and fault schedule, shared by the handler threads."""

    def __init__(self, latency_s: float, retry_every: int, window_chars: int):
        self.latency_s = latency_s
        self.retry_every = retry_every
        self.window_chars = window_chars
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.answered = 0
        self.retries = 0
        self.window_rejections = 0
        self.service_ms: list[float] = []
        self._first_attempts = 0
        self._throttled: set[str] = set()

    def decide(self, prompt: str) -> int:
        """Status code for this request: 429, 400 or 200."""
        with self._lock:
            if prompt in self._throttled:
                self._throttled.discard(prompt)
            else:
                self._first_attempts += 1
                if (self.retry_every
                        and self._first_attempts % self.retry_every == self.retry_every // 2):
                    self._throttled.add(prompt)
                    self.retries += 1
                    return 429
            if (self.window_chars and not is_validation_prompt(prompt)
                    and len(prompt) > self.window_chars):
                self.window_rejections += 1
                return 400
            return 200

    def record(self, service_s: float) -> None:
        with self._lock:
            self.answered += 1
            self.service_ms.append(service_s * 1000.0)

    def take(self) -> dict:
        """The counters so far; they restart from zero."""
        with self._lock:
            stats = {"answered": self.answered, "retries": self.retries,
                     "window_rejections": self.window_rejections,
                     "service_ms": self.service_ms}
            self._reset()
            return stats


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        # Without this the header and body writes meet delayed ACK on the
        # client and every call stalls for tens of milliseconds.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format: str, *args) -> None:
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:
        start = time.perf_counter()
        state: StubState = self.server.state
        length = int(self.headers.get("Content-Length", "0"))
        prompt = json.loads(self.rfile.read(length))["prompt"]
        status = state.decide(prompt)
        if status == 429:
            self._send(429, {"error": {"message": "rate limited"}})
            return
        if status == 400:
            self._send(400, {"error": {"message": "This model's maximum context length "
                                                  "is exceeded by the prompt."}})
            return
        text = answer(prompt)
        if state.latency_s:
            time.sleep(state.latency_s)
        self._send(200, {"choices": [{"text": text, "finish_reason": "stop"}]})
        state.record(time.perf_counter() - start)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, {"error": {"message": "not found"}})
            return
        self._send(200, self.server.state.take())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency-ms", type=float, default=0.0)
    parser.add_argument("--retry-every", type=int, default=0,
                        help="429 on every Nth first attempt (0: never)")
    parser.add_argument("--window-chars", type=int, default=0,
                        help="reject longer decomposition prompts (0: never)")
    args = parser.parse_args(argv)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.state = StubState(args.latency_ms / 1000.0, args.retry_every, args.window_chars)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
