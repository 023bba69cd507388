"""Weighted oblivious transfer for priced digital goods.

A buyer retrieves chosen items from a seller's priced catalog; the seller
learns only the total price of the purchase, and the buyer learns nothing
beyond the purchased items. See README.md for the protocol walkthrough.
"""

from .catalog import (Catalog, FlatIndexMap, Item, Manifest, ManifestEntry,
                      MODE_P1, MODE_P2, load_catalog, total_price)
from .errors import (AuthenticationError, AuditError, CatalogError, CryptoError,
                     FrameError, GrammarError, GroupError, HarnessError,
                     ItemAuthenticationError, ProtocolError, ReductionError,
                     RemoteError, WotError)
from .group import GroupParams, make_params, setup_params
from .instrument import Counters
from .net import run_local_session
from .protocol import (PublishedBundle, PurchaseResult, SelectionPlan, SenderSecrets,
                       load_bundle, load_secrets, publish, run_session_receiver,
                       run_session_sender, save_bundle)
from .weights import ReductionReport, approx_reduce, gcd_reduce

__version__ = "0.1.0"

__all__ = [
    "AuditError", "AuthenticationError", "Catalog", "CatalogError", "Counters",
    "CryptoError", "FlatIndexMap", "FrameError", "GrammarError", "GroupError",
    "GroupParams", "HarnessError", "Item", "ItemAuthenticationError", "Manifest",
    "ManifestEntry", "MODE_P1", "MODE_P2", "ProtocolError", "PublishedBundle",
    "PurchaseResult", "ReductionError", "ReductionReport", "RemoteError",
    "SelectionPlan", "SenderSecrets", "WotError", "approx_reduce",
    "gcd_reduce", "load_bundle", "load_catalog", "load_secrets", "make_params",
    "publish", "run_local_session", "run_session_receiver",
    "run_session_sender", "save_bundle", "setup_params", "total_price",
]
