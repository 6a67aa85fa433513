"""Indexed names built once.

Workloads and drivers name senders and keys by index (``user17``,
``acct3``, ``account-912``). Formatting the name per transaction leaves
one string per transaction alive for as long as the transaction is;
this cache hands out one string per distinct index instead.
"""

from __future__ import annotations


class IndexedNames(dict):
    """``names[i] == f"{prefix}{i}"``, each built on first use.

    >>> users = IndexedNames("user")
    >>> users[7]
    'user7'
    >>> users[7] is users[7]
    True
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, index: int) -> str:
        name = self[index] = f"{self.prefix}{index}"
        return name
