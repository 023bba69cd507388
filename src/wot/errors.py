"""Exception hierarchy shared across the package."""


class WotError(Exception):
    """Base class for all errors raised by this package."""


class CatalogError(WotError):
    """Invalid catalog, manifest, or flat-index operation."""


class ReductionError(WotError):
    """Weight reduction cannot be applied to the given price vector."""


class CryptoError(WotError):
    """Malformed key material or ciphertext."""


class AuthenticationError(CryptoError):
    """Ciphertext failed authentication (wrong or incomplete key)."""


class GroupError(WotError):
    """Invalid group parameters or non-member element."""


class AuditError(WotError):
    """Leakage audit rejected its input."""


class HarnessError(WotError):
    """A harness experiment refused to run (vacuous or oversized setup)."""


class ProtocolError(WotError):
    """Session-level failure: bad peer message, aborted transfer."""


class ItemAuthenticationError(ProtocolError):
    """Decryption of a purchased item failed; names the offending item."""

    def __init__(self, item_id: str):
        super().__init__(f"authentication failure for item {item_id!r}")


class FrameError(ProtocolError):
    """Wire frame could not be encoded or decoded."""


class RemoteError(ProtocolError):
    """Peer reported an error frame."""

    def __init__(self, code: int, text: str):
        super().__init__(f"remote error {code}: {text}")
