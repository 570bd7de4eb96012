"""Feed sender for the stream-tcp workload; runs as its own process.

    python3 sender.py SEED RATE PHASE1_LINES PHASE2_LINES STATS_CSV

It listens on 127.0.0.1, prints ``port N`` and then obeys one command per
line on standard input:

* ``start T0``  accept the stream's connection; line i of the fixed-rate
  phase (the first PHASE1_LINES lines) is due at T0 + i / RATE on the
  monotonic clock.  The saturating phase then sends PHASE2_LINES more lines
  as fast as the socket accepts, and the sender closes the connection.  The
  line counts are fixed, so every run of a seed sends the same lines.
* ``resume I``  drop the current connection, accept a new one and go on from
  line I, keeping the schedule (lines already due go out at once).
* ``done``      print a JSON summary and exit.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import sys
import time

import reference
from feed import Feed

CHUNK_LINES = 256
IDLE_LIMIT_S = 120.0


class Control:
    """Line commands from standard input, readable with select()."""

    def __init__(self):
        self.fd = sys.stdin.fileno()
        self.buffer = b""

    def ready(self) -> bool:
        return b"\n" in self.buffer

    def pump(self) -> None:
        data = os.read(self.fd, 4096)
        if not data:
            sys.exit(1)                       # the benchmark went away
        self.buffer += data

    def next(self, timeout: float = IDLE_LIMIT_S) -> list[str]:
        while not self.ready():
            readable, _, _ = select.select([self.fd], [], [], timeout)
            if not readable:
                sys.exit(1)
            self.pump()
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode().split()


def main() -> None:
    seed, rate = int(sys.argv[1]), float(sys.argv[2])
    phase1_lines, phase2_lines, stats_path = int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
    mean, std = reference.read_stats(stats_path)
    end_index = phase1_lines + phase2_lines
    feed = Feed(seed, mean, std, phase1_lines, end_index)
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(60)
    print(f"port {server.getsockname()[1]}", flush=True)
    control = Control()

    command = control.next()
    t0 = float(command[1])
    conn = _accept(server)
    index, pending = 0, b""
    resumed_at = 0.0
    lag_max, connections = 0.0, 1

    def due(i: int) -> float:
        return t0 + i / rate

    while True:
        if conn is None or control.ready():
            command = control.next()
            if command[0] == "done":
                print(json.dumps({"lines": end_index, "lag_ms_max": lag_max * 1e3,
                                  "connections": connections}), flush=True)
                return
            if conn is not None:
                conn.close()
            conn = _accept(server)
            index, pending = int(command[1]), b""
            resumed_at = time.monotonic()
            connections += 1
            continue
        now = time.monotonic()
        if not pending:
            if index >= end_index:
                try:
                    conn.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                conn.close()
                conn = None
                continue
            if index < phase1_lines:
                last = min(phase1_lines, math.floor((now - t0) * rate) + 1)
                if last <= index:
                    readable, _, _ = select.select([control.fd], [], [], due(index) - now)
                    if readable:
                        control.pump()
                    continue
                if due(index) >= resumed_at:          # on schedule, not catching up
                    lag_max = max(lag_max, now - due(index))
            else:
                last = min(index + CHUNK_LINES, end_index)
            pending = "".join(feed.line(i) + "\n" for i in range(index, last)).encode()
            index = last
        readable, writable, _ = select.select([control.fd], [conn], [], 1.0)
        if readable:
            control.pump()
        if writable:
            try:
                pending = pending[conn.send(pending):]
            except (BrokenPipeError, ConnectionResetError):
                conn.close()
                conn, pending = None, b""


def _accept(server: socket.socket) -> socket.socket:
    conn, _ = server.accept()
    conn.setblocking(False)
    # A live feed sends each frame when it is due; without this, Nagle's
    # algorithm holds small writes until the stream's delayed ACK (40 ms).
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


if __name__ == "__main__":
    main()
