"""Registry of indices of explicitly constructed finite-output machines.

Membership is what makes the guarded counterexample search total: an index is
treated as a known finite-threshold solver only if it was registered by a
builder (or is syntactically a clocked pair).  The in-process set covers a
single run; FRegistry persists the set across command invocations.
"""

import fcntl
import os
from pathlib import Path

_HEADER = "fregistry 1"

_members: set[int] = set()


def register(index: int, file_registry: "FRegistry | None" = None) -> None:
    _members.add(index)
    if file_registry is not None:
        file_registry.add(index)


def registered(index: int, file_registry: "FRegistry | None" = None) -> bool:
    if index in _members:
        return True
    return file_registry is not None and index in file_registry


def clear() -> None:
    """Forget in-process registrations (tests)."""
    _members.clear()


class FRegistry:
    """Durable registry: header line, then one decimal index per line.
    add holds an exclusive lock on a sibling `.lock` file across its
    read-modify-write, so concurrent processes lose no index and only one
    writes at a time.  It writes a sibling `.tmp` file and renames it over
    the registry, so readers never see a torn file."""

    def __init__(self, path):
        self.path = Path(path)

    def load(self) -> set[int]:
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return set()
        lines = text.splitlines()
        if not lines or lines[0] != _HEADER:
            raise ValueError("not a registry file: %s" % self.path)
        return {int(line) for line in lines[1:] if line}

    def add(self, index: int) -> None:
        # the registry file itself is replaced on every write, so the lock
        # lives on a file that is never renamed; closing it releases the lock
        with open(self.path.with_name(self.path.name + ".lock"), "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            got = self.load()
            if index in got:
                return
            got.add(index)
            self._write(got)

    def __contains__(self, index: int) -> bool:
        return index in self.load()

    def _write(self, indices: set[int]) -> None:
        tmp = self.path.with_name(self.path.name + ".tmp")  # only the lock holder writes it
        body = "".join("%d\n" % i for i in sorted(indices))
        tmp.write_text(_HEADER + "\n" + body)
        os.replace(tmp, self.path)
