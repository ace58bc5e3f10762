"""Completion providers for the synthesis loop.

Three kinds: ``http`` posts a chat-completion request to an OpenAI-style
endpoint, ``scripted`` replays canned replies (tests and offline demos), and
``fallback`` means no provider at all, so the loop uses its deterministic
built-in synthesizer.  Credentials are never stored in descriptors; an
``auth_env`` field names the environment variable holding the bearer token.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Sequence

from .graph import check_type


class ProviderError(RuntimeError):
    """A provider call failed or returned an unusable payload."""


@dataclass(frozen=True)
class ProviderSpec:
    """A provider descriptor, checked when constructed by
    :func:`~priosynth.graph.check_type`: ``endpoint``, ``model`` and
    ``auth_env`` are strings or None, and ``replies`` a tuple of strings."""

    kind: str = "fallback"
    endpoint: str | None = None
    model: str | None = None
    auth_env: str | None = None
    replies: tuple[str, ...] = ()

    def __post_init__(self):
        check_type("kind", self.kind, str)
        for name in ("endpoint", "model", "auth_env"):
            check_type(name, getattr(self, name), str | None)
        for i, reply in enumerate(check_type("replies", self.replies, tuple)):
            check_type(f"replies[{i}]", reply, str)
        if self.kind not in ("http", "scripted", "fallback"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.kind == "http" and not self.endpoint:
            raise ValueError("http provider requires an endpoint")


def provider_spec_to_document(spec: ProviderSpec) -> dict:
    """The fields that are set; ``kind`` always is."""
    return {name: value for name, value in asdict(spec).items() if value}


class ScriptedProvider:
    """Replays a fixed reply sequence; raises once the script is exhausted."""

    def __init__(self, replies: Sequence[str]):
        self._replies = list(replies)
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if not self._replies:
            raise ProviderError("scripted provider has no replies left")
        return self._replies.pop(0)


class HttpProvider:
    """OpenAI-style chat-completions client over HTTP."""

    def __init__(self, endpoint: str, model: str | None = None, auth_env: str | None = None, timeout: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout

    def complete(self, prompt: str) -> str:
        # Imported here: urllib.request costs a few MB that runs without an
        # HTTP provider never need.
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env)
            if not token:
                raise ProviderError(f"environment variable {self.auth_env!r} is not set")
            headers["Authorization"] = f"Bearer {token}"
        payload: dict = {"messages": [{"role": "user", "content": prompt}]}
        if self.model:
            payload["model"] = self.model
        if urllib.parse.urlsplit(self.endpoint).scheme not in ("http", "https"):
            raise ProviderError(f"request failed: endpoint {self.endpoint!r} is not an http(s) URL")
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                status = response.status
                raw = response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise ProviderError(f"provider returned HTTP {exc.code}") from None
        except (OSError, http.client.HTTPException) as exc:
            # URLError and TimeoutError are OSErrors.
            raise ProviderError(f"request failed: {exc}") from None
        if status != 200:
            raise ProviderError(f"provider returned HTTP {status}")
        try:
            body = json.loads(raw)
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from None
        if not isinstance(content, str):
            raise ProviderError(f"malformed provider response: content is {json.dumps(content)}, not a string")
        return content


def make_provider(spec: ProviderSpec):
    """Instantiate a provider, or None for the fallback kind."""
    if spec.kind == "fallback":
        return None
    if spec.kind == "scripted":
        return ScriptedProvider(spec.replies)
    return HttpProvider(endpoint=spec.endpoint or "", model=spec.model, auth_env=spec.auth_env)
