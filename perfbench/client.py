"""The closed-loop HTTP client and the ``/proc`` probes of the benchmark.

The client speaks just enough HTTP/1.1 for the F-Box server: one
keep-alive socket per connection, pre-encoded request bodies, and a
response reader that trusts the server's ``Content-Length``.  Keeping it
this small keeps the load generator's own CPU share low on a 2-core box.
"""

from __future__ import annotations

import gc
import os
import socket
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

_clock = time.perf_counter
_TICK = os.sysconf("SC_CLK_TCK")


class Connection:
    """One keep-alive connection; ``send`` returns ``(status, body)``."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parts = urlsplit(url)
        self.host = parts.hostname
        self.sock = socket.create_connection((parts.hostname, parts.port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self.sock.close()

    def send(self, data: bytes) -> tuple[int, bytes]:
        sock = self.sock
        sock.sendall(data)
        buffer = self._buffer
        while True:
            head_end = buffer.find(b"\r\n\r\n")
            if head_end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        status = int(buffer[9:12])
        marker = buffer.find(b"Content-Length: ", 0, head_end)
        length = int(buffer[marker + 16 : buffer.find(b"\r\n", marker)])
        end = head_end + 4 + length
        while len(buffer) < end:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        self._buffer = buffer[end:]
        return status, buffer[head_end + 4 : end]


def post_bytes(path: str, body: bytes, token: str | None = None) -> bytes:
    """A complete request minus its id header and the blank line."""
    extra = f"X-Admin-Token: {token}\r\n" if token else ""
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"{extra}Content-Length: {len(body)}\r\nX-Bench-Id: "
    ).encode("latin-1")


def get_bytes(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def closed_loop(url, streams, seconds, check, new_tally, tag, starts=None, sample=None):
    """Drive one closed loop: a thread per stream, one connection each.

    Each thread sends its stream's requests in order, the next only after
    the previous answered, until ``seconds`` pass.  ``check(req, status,
    body, latency, tally)`` judges and records every answer in the thread's
    own tally, made by ``new_tally()``.  Request ids are
    ``<tag><stream>.<index>``.  Meanwhile this thread calls ``sample()``
    at the start and after every whole second.

    Returns a dict: ``tallies``, ``positions`` (where each stream stopped),
    ``latency`` (request id → seconds), ``log`` ((end, latency, op) per
    request), ``samples`` ((time, sample()) pairs), ``window`` (common
    start → last answer) and ``client_cpu`` (this process, seconds).
    """
    starts = starts or [0] * len(streams)
    connections = [Connection(url) for _ in streams]
    tallies = [new_tally() for _ in streams]
    positions = list(starts)
    latencies: list[dict] = [{} for _ in streams]
    logs: list[list] = [[] for _ in streams]
    errors: list[BaseException] = []
    gate = threading.Barrier(len(streams) + 1)
    box = {}

    def run(index: int) -> None:
        conn, stream, tally = connections[index], streams[index], tallies[index]
        seen, log = latencies[index], logs[index]
        prefix = f"{tag}{index}.".encode()
        position = starts[index]
        gate.wait()
        deadline = box["deadline"]
        try:
            while True:
                began = _clock()
                if began >= deadline:
                    break
                if position >= len(stream):
                    raise RuntimeError(
                        f"stream {index} ran out of pre-generated requests"
                    )
                req = stream[position]
                rid = prefix + str(position).encode()
                try:
                    status, body = conn.send(req.head + rid + b"\r\n\r\n" + req.body)
                except (OSError, ConnectionError, ValueError) as error:
                    status, body = None, repr(error).encode()
                    conn.close()
                    conn = connections[index] = Connection(url)
                ended = _clock()
                check(req, status, body, ended - began, tally)
                seen[rid.decode()] = ended - began
                log.append((ended, ended - began, req.op))
                position += 1
        except BaseException as error:  # reported by the caller
            errors.append(error)
        finally:
            positions[index] = position
            box.setdefault("ends", []).append(_clock())

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    # A collection pass over the pre-generated streams would stall a client
    # thread mid-measurement; the loop's own garbage waits until it ends.
    gc.collect()
    gc.freeze()
    gc.disable()
    cpu_before = time.process_time()
    start = box["start"] = _clock()
    box["deadline"] = start + seconds
    gate.wait()
    samples = []
    if sample is not None:
        samples.append((start, sample()))
        for second in range(1, int(seconds) + 1):
            delay = start + second - _clock()
            if delay > 0:
                time.sleep(delay)
            samples.append((_clock(), sample()))
    for thread in threads:
        thread.join()
    cpu = time.process_time() - cpu_before
    gc.enable()
    gc.unfreeze()
    for conn in connections:
        conn.close()
    if errors:
        raise errors[0]
    merged_latency = {}
    for part in latencies:
        merged_latency.update(part)
    return {
        "tallies": tallies,
        "positions": positions,
        "latency": merged_latency,
        "log": sorted(entry for log in logs for entry in log),
        "samples": samples,
        "window": (start, max(box["ends"])),
        "client_cpu": cpu,
    }


# ----------------------------------------------------------------------
# /proc probes: server CPU, peak RSS, process liveness
# ----------------------------------------------------------------------


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid`` (the shard workers of a front)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def cpu_seconds(pids) -> float:
    """User plus system CPU of ``pids`` so far."""
    total = 0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def peak_rss_mb(pids) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MB."""
    total = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total / 1024.0


def alive(pid: int) -> bool:
    """True unless the process is gone or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"
