"""Offline tests of the HTTP provider against a local chat-completions stub.

The stub is a ``ThreadingHTTPServer`` on an ephemeral 127.0.0.1 port; each
test sets the status, body and delay of its reply and reads back the request
the provider sent.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from priosynth.providers import HttpProvider, ProviderError


def reply_body(content: str) -> bytes:
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode("utf-8")


class Stub:
    """What the next reply looks like, and the requests received so far."""

    def __init__(self):
        self.status = 200
        self.body = reply_body("1*crit")
        self.delay = 0.0
        self.requests: list[tuple[dict, dict]] = []


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    # urllib would send even 127.0.0.1 requests through a proxy named in the
    # environment.
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def stub():
    state = Stub()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            state.requests.append((dict(self.headers), json.loads(self.rfile.read(length))))
            if state.delay:
                # Hold the reply past the client's timeout, then drop it.
                time.sleep(state.delay)
                return
            self.send_response(state.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(state.body)))
            self.end_headers()
            self.wfile.write(state.body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    yield state
    server.shutdown()
    server.server_close()


class TestHttpProvider:
    def test_reply_with_model(self, stub):
        reply = HttpProvider(stub.url, model="m-1").complete("design a priority")
        assert reply == "1*crit"
        headers, payload = stub.requests[0]
        assert payload == {"model": "m-1", "messages": [{"role": "user", "content": "design a priority"}]}
        assert headers["Content-Type"] == "application/json"
        assert "Authorization" not in headers

    def test_reply_without_model(self, stub):
        assert HttpProvider(stub.url).complete("p") == "1*crit"
        _, payload = stub.requests[0]
        assert "model" not in payload

    def test_bearer_token_from_auth_env(self, stub, monkeypatch):
        monkeypatch.setenv("PRIOSYNTH_TEST_TOKEN", "s3cret")
        HttpProvider(stub.url, auth_env="PRIOSYNTH_TEST_TOKEN").complete("p")
        headers, _ = stub.requests[0]
        assert headers["Authorization"] == "Bearer s3cret"

    def test_unset_auth_env_fails_before_sending(self, stub, monkeypatch):
        monkeypatch.delenv("PRIOSYNTH_TEST_TOKEN", raising=False)
        with pytest.raises(ProviderError, match="PRIOSYNTH_TEST_TOKEN.*not set"):
            HttpProvider(stub.url, auth_env="PRIOSYNTH_TEST_TOKEN").complete("p")
        assert stub.requests == []

    @pytest.mark.parametrize("status", [500, 201])
    def test_non_200_status(self, stub, status):
        stub.status = status
        with pytest.raises(ProviderError, match=f"provider returned HTTP {status}$"):
            HttpProvider(stub.url).complete("p")

    def test_non_json_body(self, stub):
        stub.body = b"<html>busy</html>"
        with pytest.raises(ProviderError, match="malformed provider response"):
            HttpProvider(stub.url).complete("p")

    def test_body_without_choices(self, stub):
        stub.body = json.dumps({"error": "quota"}).encode("utf-8")
        with pytest.raises(ProviderError, match="malformed provider response"):
            HttpProvider(stub.url).complete("p")

    def test_timeout(self, stub):
        stub.delay = 2.0
        begin = time.perf_counter()
        with pytest.raises(ProviderError, match="request failed"):
            HttpProvider(stub.url, timeout=0.2).complete("p")
        assert time.perf_counter() - begin < 1.5

    def test_closed_port(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(ProviderError, match="request failed"):
            HttpProvider(f"http://127.0.0.1:{port}/v1/chat/completions", timeout=2.0).complete("p")

    def test_non_http_endpoint(self, tmp_path):
        with pytest.raises(ProviderError, match="request failed"):
            HttpProvider((tmp_path / "reply.json").as_uri()).complete("p")
