"""Fixtures shared across the test packages."""

import pytest


@pytest.fixture
def height_roots(monkeypatch):
    """``height_roots(cluster)``: per node, the state root it committed
    at each height it executed, recorded as blocks execute. A height
    executed again (a PoW reorg, a cold replay) keeps its last root."""
    from repro.platforms.base import PlatformNode

    recorded: dict[int, dict] = {}
    execute = PlatformNode._execute_block

    def recording(self, block):
        execute(self, block)
        recorded.setdefault(id(self), {})[block.height] = (
            self.state.pre_state_root()
        )

    monkeypatch.setattr(PlatformNode, "_execute_block", recording)
    return lambda cluster: [
        dict(recorded.get(id(node), {})) for node in cluster.nodes
    ]
