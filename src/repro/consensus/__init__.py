"""Consensus layer: PoW (Ethereum), PoA (Parity), PBFT (Hyperledger),
Tendermint (ErisDB)."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("ConsensusHost", "ConsensusProtocol"),
    "pbft": ("PBFT", "PBFTConfig"),
    "poa": ("PoAConfig", "ProofOfAuthority"),
    "pow": ("PoWConfig", "ProofOfWork"),
    "tendermint": ("Tendermint", "TendermintConfig"),
})
