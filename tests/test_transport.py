"""The one socket transport: :class:`FrameServer` and :func:`dial`.

The sweep coordinator and the ``repro serve`` daemon both listen through
``FrameServer``; these tests drive it directly.  What one bad connection
must not cost either port — a sweep report, another client's answers —
is checked in ``test_dispatch_socket.py`` and ``test_serve.py``, which
reuse :data:`BAD_FRAMES` and :func:`assert_closed_by_peer`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import socket
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dispatch.socket_pool import (
    CLOSED,
    MAX_FRAME_BYTES,
    WELCOMED,
    FrameServer,
    dial,
    frame_bytes,
    recv_frame,
    send_frame,
)
from repro.errors import DispatchError


def _prefixed(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


#: One undecodable frame of each kind; each must close only its own
#: connection, on either port.  Pickles among them are refused like any
#: other bytes that are not JSON; NaN and runaway nesting are JSON that
#: Python's parser would accept or crash on.
BAD_FRAMES = {
    "truncated-pickle": _prefixed(b"\x80\x05garbage-not-a-pickle"),
    "random-bytes": _prefixed(hashlib.sha256(b"random").digest() * 2),
    "disallowed-global": _prefixed(pickle.dumps(os.system)),
    "oversized-prefix": (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x",
    "nan": _prefixed(b'{"kind": "results", "elapsed": NaN}'),
    "deep-nesting": _prefixed(b"[" * 100_000 + b"]" * 100_000),
}


def assert_closed_by_peer(sock: socket.socket) -> None:
    """The other end closed ``sock`` (EOF, or a reset)."""
    sock.settimeout(10.0)
    try:
        assert sock.recv(1) == b""
    except ConnectionResetError:
        pass


HELLO = {"kind": "hello", "protocol": 1}
VALID = [
    frame_bytes(HELLO),
    frame_bytes({"kind": "ping", "blob": b"x" * 40, "n": [1, 2.5, None]}),
    frame_bytes({"kind": "results", "results": [], "elapsed": 0.25}),
]


def _flipped(frame: bytes, flips: list[tuple[int, int]]) -> bytes:
    out = bytearray(frame)
    for position, mask in flips:
        out[position % len(out)] ^= mask
    return bytes(out)


MANGLED = st.one_of(
    # a valid frame cut short, as it arrives (the server waits for more)
    st.builds(
        lambda frame, keep: frame[:keep],
        st.sampled_from(VALID),
        st.integers(0, 80),
    ),
    # a valid payload cut short under a matching prefix (a decode error)
    st.builds(
        lambda frame, keep: _prefixed(frame[4 : 4 + keep]),
        st.sampled_from(VALID),
        st.integers(0, 80),
    ),
    st.builds(
        _flipped,
        st.sampled_from(VALID),
        st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
            min_size=1,
            max_size=4,
        ),
    ),
    st.binary(max_size=64),
)


def _poll(server: FrameServer, done, seconds: float = 5.0) -> list:
    """Poll ``server`` until ``done(events)``; returns every event."""
    events: list = []
    deadline = time.monotonic() + seconds
    while not done(events) and time.monotonic() < deadline:
        events += server.poll(0.05)
    return events


class TestFrameServer:
    @settings(max_examples=60, deadline=None)
    @given(bad=MANGLED, greet=st.booleans())
    @example(bad=BAD_FRAMES["truncated-pickle"], greet=False)
    @example(bad=BAD_FRAMES["random-bytes"], greet=True)
    @example(bad=BAD_FRAMES["disallowed-global"], greet=True)
    @example(bad=BAD_FRAMES["oversized-prefix"], greet=True)
    def test_mangled_bytes_close_only_their_connection(self, bad, greet):
        server = FrameServer("127.0.0.1", 0, 1)
        good = socket.create_connection(server.address, timeout=10)
        try:
            send_frame(good, HELLO)
            [(good_peer, welcomed)] = _poll(server, bool)
            assert welcomed is WELCOMED
            assert recv_frame(good)["kind"] == "welcome"
            with socket.create_connection(server.address, timeout=10) as evil:
                if greet:
                    send_frame(evil, HELLO)
                evil.sendall(bad)
            pings = [{"kind": "ping", "i": i} for i in range(3)]
            for ping in pings:
                send_frame(good, ping)

            got: list = []
            closed: list = []
            deadline = time.monotonic() + 5.0
            while (len(got) < 3 or not closed) and time.monotonic() < deadline:
                for peer, frame in server.poll(0.05):
                    if peer is good_peer:
                        got.append(frame)
                        server.send(peer, frame_bytes(frame))  # echo
                    elif frame is CLOSED:
                        closed.append(peer)
            assert got == pings
            assert len(closed) == 1 and closed[0] is not good_peer
            assert server.peers == {good_peer}
            assert [recv_frame(good) for _ in pings] == pings
        finally:
            good.close()
            server.close()

    def test_reject_is_sent_then_the_connection_closes(self):
        server = FrameServer("127.0.0.1", 0, 2)
        try:
            with socket.create_connection(server.address, timeout=10) as sock:
                send_frame(sock, {"kind": "hello", "protocol": 1})
                events = _poll(server, bool)
                assert [frame for _peer, frame in events] == [CLOSED]
                reject = recv_frame(sock)
                assert reject["kind"] == "reject"
                assert "protocol 2 hello" in reject["reason"]
                assert "protocol 1" in reject["reason"]
                assert_closed_by_peer(sock)
            assert not server.peers
        finally:
            server.close()

    def test_close_drains_buffered_frames(self):
        server = FrameServer("127.0.0.1", 0, 1)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(server.address)
        try:
            send_frame(sock, HELLO)
            [(peer, _welcomed)] = _poll(server, bool)
            blob = {"kind": "blob", "data": b"x" * (1 << 22)}
            server.send(peer, frame_bytes(blob))
            assert peer.outbuf  # more than the socket took at once
            got: list = []
            reader = threading.Thread(
                target=lambda: got.extend(recv_frame(sock) for _ in "ab"),
                daemon=True,
            )
            reader.start()
            server.close(drain=10.0)
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert got == [{"kind": "welcome", "protocol": 1}, blob]
            assert_closed_by_peer(sock)
        finally:
            sock.close()


class TestDial:
    def _serve(self, server: FrameServer):
        stop = threading.Event()

        def loop() -> None:
            while not stop.is_set():
                server.poll(0.02)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        return stop, thread

    def test_welcomed_socket_disables_nagle(self):
        server = FrameServer("127.0.0.1", 0, 1)
        stop, thread = self._serve(server)
        try:
            with dial(*server.address, HELLO, retry_seconds=5.0) as sock:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            stop.set()
            thread.join(timeout=10)
            server.close()
        assert not thread.is_alive()

    def test_rejected_hello_raises_with_the_reason(self):
        server = FrameServer("127.0.0.1", 0, 2)
        stop, thread = self._serve(server)
        try:
            with pytest.raises(DispatchError, match="got kind 'hello' protocol 1"):
                dial(*server.address, HELLO, retry_seconds=5.0)
        finally:
            stop.set()
            thread.join(timeout=10)
            server.close()
        assert not thread.is_alive()

    def test_unreachable_server_raises_oserror(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            dial("127.0.0.1", port, HELLO, retry_seconds=0.1)
