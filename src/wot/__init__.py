"""Weighted oblivious transfer for priced digital goods.

A buyer retrieves chosen items from a seller's priced catalog; the seller
learns only the total price of the purchase, and the buyer learns nothing
beyond the purchased items. See README.md for the protocol walkthrough.
"""

from .catalog import (Catalog, FlatIndexMap, Item, Manifest, ManifestEntry,
                      MODE_P1, MODE_P2, load_catalog)
from .errors import (AuthenticationError, AuditError, CatalogError, CryptoError,
                     FrameError, GroupError, HarnessError, ItemAuthenticationError,
                     ProtocolError, ReductionError, RemoteError, WotError)
from .group import GroupParams, setup_params
from .protocol import (PublishedBundle, PurchaseResult, SenderSecrets,
                       load_bundle, load_secrets, publish, run_session_receiver,
                       save_bundle, serve_session)
from .weights import ReductionReport, approx_reduce, gcd_reduce

__version__ = "0.1.0"

__all__ = [
    "AuditError", "AuthenticationError", "Catalog", "CatalogError",
    "CryptoError", "FlatIndexMap", "FrameError", "GroupError",
    "GroupParams", "HarnessError", "Item", "ItemAuthenticationError", "Manifest",
    "ManifestEntry", "MODE_P1", "MODE_P2", "ProtocolError", "PublishedBundle",
    "PurchaseResult", "ReductionError", "ReductionReport", "RemoteError",
    "SenderSecrets", "WotError", "approx_reduce",
    "gcd_reduce", "load_bundle", "load_catalog", "load_secrets", "publish",
    "run_session_receiver", "save_bundle", "serve_session", "setup_params",
]
