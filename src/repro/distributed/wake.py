"""Same-host wake-ups for spool waiters: named FIFOs under ``<spool>/wake/``.

A spool waiter — a worker blocked in :meth:`WorkQueue.claim`, a submitter in
:meth:`WorkQueue.wait_result` or a :class:`~repro.distributed.stream.
ResultStream`, the gateway waiting on a request — used to sleep a full
``poll_interval`` between directory scans, so a task or result that landed
just after a scan waited out the rest of the interval.  With wake-ups the
waiter registers an endpoint and the queue operation that makes its wait
worth re-checking rings it:

* an **endpoint** is a named FIFO ``wake/<topic>-<host>-<pid>-<rand>``, with
  topic ``claim`` (rung on submit, requeue and release) or ``result`` (rung
  on ack, dead-letter and progress).  The waiter creates the FIFO in
  ``tmp/``, opens it ``O_RDWR|O_NONBLOCK`` and only then renames it into
  ``wake/`` — a FIFO that is visible before it has a reader would look dead
  to a concurrent ringer and be reaped;
* the waiter ``select``\\ s on its FIFO with the poll interval as timeout;
* to **ring**, the queue lists ``wake/`` and writes one byte
  (``O_WRONLY|O_NONBLOCK``) to every endpoint of the topic on its own host.
  ``ENXIO`` — no reader — means the owner died without cleaning up, so the
  ringer unlinks the endpoint; ``EAGAIN`` means it is already rung.

The filesystem stays the only source of truth: a ring carries no data, it
only cuts a sleep short, and every call here is best-effort and never
raises.  A lost ring, a waiter on another host of a shared filesystem, or a
platform without ``os.mkfifo`` all degrade to the plain poll.
"""

from __future__ import annotations

import errno
import os
import select
import socket
import time
import uuid
from typing import Optional

WAKE_DIR = "wake"
#: Rung when a task becomes claimable (submit, requeue, release).
CLAIM = "claim"
#: Rung when a task's outcome or progress changes (ack, dead-letter,
#: progress).
RESULT = "result"


def _host() -> str:
    return socket.gethostname()


def _owner_host(name: str, topic: str) -> Optional[str]:
    """The host part of ``<topic>-<host>-<pid>-<rand>``, or None."""
    prefix = topic + "-"
    if not name.startswith(prefix):
        return None
    parts = name[len(prefix):].rsplit("-", 2)
    if len(parts) != 3 or not parts[1].isdigit():
        return None
    return parts[0]


def ring(directory: str, topic: str) -> None:
    """Wake every ``topic`` endpoint on this host registered in the spool
    at ``directory``; reap endpoints whose owner died.  Never raises."""
    wake_dir = os.path.join(directory, WAKE_DIR)
    try:
        names = os.listdir(wake_dir)
    except OSError:
        return
    host = _host()
    for name in names:
        if _owner_host(name, topic) != host:
            continue  # another host's waiter: it polls, leave it be
        path = os.path.join(wake_dir, name)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            if exc.errno == errno.ENXIO:
                try:  # no reader: the waiter died holding it
                    os.unlink(path)
                except OSError:
                    pass
            continue
        try:
            os.write(fd, b"\0")
        except OSError:
            pass  # EAGAIN: a ring is already pending
        finally:
            os.close(fd)


class Endpoint:
    """One waiter's FIFO; a plain sleep when it could not be registered.

    Opened lazily by the first :meth:`wait`, which then returns at once so
    the caller re-checks the spool with the endpoint live — a ring landing
    between that check and the next wait is kept in the FIFO, never lost.
    :meth:`close` (or leaving the ``with`` block) unlinks the endpoint.
    """

    def __init__(self, directory: str, topic: str) -> None:
        self.directory = directory
        self.topic = topic
        self.fd: Optional[int] = None
        self.path: Optional[str] = None
        self._opened = False

    def open(self) -> bool:
        """Register the endpoint; False (and stay a sleeper) on any error."""
        self._opened = True
        if not hasattr(os, "mkfifo"):
            return False
        name = f"{self.topic}-{_host()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        # staged in the spool's tmp/; the .tmp suffix lets the janitor reap
        # a FIFO whose owner died before the rename
        staging = os.path.join(self.directory, "tmp", name + ".tmp")
        fd = None
        try:
            os.makedirs(os.path.join(self.directory, WAKE_DIR), exist_ok=True)
            os.mkfifo(staging, 0o600)
            fd = os.open(staging, os.O_RDWR | os.O_NONBLOCK)
            path = os.path.join(self.directory, WAKE_DIR, name)
            os.rename(staging, path)
        except OSError:
            if fd is not None:
                os.close(fd)
            try:
                os.unlink(staging)
            except OSError:
                pass
            return False
        self.fd, self.path = fd, path
        return True

    def drain(self) -> None:
        """Consume pending rings so the next wait blocks again."""
        if self.fd is None:
            return
        try:
            while os.read(self.fd, 4096):
                pass
        except OSError:
            pass  # EAGAIN: empty

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds; True when rung (or just armed)."""
        if not self._opened and self.open():
            return True
        if self.fd is None:
            time.sleep(max(timeout, 0.0))
            return False
        try:
            ready, _, _ = select.select([self.fd], [], [], max(timeout, 0.0))
        except (OSError, ValueError):
            time.sleep(max(timeout, 0.0))
            return False
        if ready:
            self.drain()
        return bool(ready)

    def close(self) -> None:
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self.path = None
        if self.fd is not None:
            try:
                os.close(self.fd)
            except OSError:
                pass
            self.fd = None

    def __enter__(self) -> "Endpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
